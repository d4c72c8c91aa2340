//! Process-wide stream gauges: how much data is *in flight* right now.
//!
//! The control-plane counters in `crate::metrics` and the data-plane
//! counters in [`crate::payload`] are both monotone totals; an operator
//! watching a live system also wants level gauges — how many streams are
//! open, how many records have entered pipelines but not yet reached a
//! sink. The transput crate feeds these from the points where records
//! physically enter (a source serving a `Transfer`, a push source emitting a
//! `Write`) and leave (a sink's collector accepting a record) the stream
//! fabric; snapshot differences give windowed throughput.
//!
//! Like [`crate::payload`], these are process-wide statics (relaxed
//! atomics): the emission sites live in worker threads far below anything
//! that carries a per-kernel handle, and the values are statistics, not
//! synchronisation.

use std::sync::atomic::{AtomicU64, Ordering};

static RECORDS_EMITTED: AtomicU64 = AtomicU64::new(0);
static RECORDS_COLLECTED: AtomicU64 = AtomicU64::new(0);
static STREAMS_OPENED: AtomicU64 = AtomicU64::new(0);
static STREAMS_CLOSED: AtomicU64 = AtomicU64::new(0);

/// Record `n` records entering the stream fabric at a source.
#[inline]
pub fn note_emitted(n: usize) {
    RECORDS_EMITTED.fetch_add(n as u64, Ordering::Relaxed);
}

/// Record `n` records arriving at a sink's collector.
#[inline]
pub fn note_collected(n: usize) {
    RECORDS_COLLECTED.fetch_add(n as u64, Ordering::Relaxed);
}

/// Record a stream opening (a sink collector coming into existence).
#[inline]
pub fn note_stream_opened() {
    STREAMS_OPENED.fetch_add(1, Ordering::Relaxed);
}

/// Record a stream closing (end-of-stream or error reached the collector).
#[inline]
pub fn note_stream_closed() {
    STREAMS_CLOSED.fetch_add(1, Ordering::Relaxed);
}

/// Capture the current stream gauges.
pub fn snapshot() -> StreamSnapshot {
    StreamSnapshot {
        records_emitted: RECORDS_EMITTED.load(Ordering::Relaxed),
        records_collected: RECORDS_COLLECTED.load(Ordering::Relaxed),
        streams_opened: STREAMS_OPENED.load(Ordering::Relaxed),
        streams_closed: STREAMS_CLOSED.load(Ordering::Relaxed),
    }
}

crate::exported! {
    /// A point-in-time copy of the stream gauges. Subtract two snapshots (via
    /// [`StreamSnapshot::since`]) for windowed rates; the level gauges
    /// ([`records_in_flight`](StreamSnapshot::records_in_flight),
    /// [`streams_active`](StreamSnapshot::streams_active)) are derived from the
    /// monotone totals so they can never go negative under racy reads.
    #[allow(missing_docs)] // Field names are self-describing counter names.
    pub struct StreamSnapshot {
        pub records_emitted
            => "eden_stream_records_emitted_total", "Records that entered the stream fabric";
        pub records_collected
            => "eden_stream_records_collected_total", "Records that reached a sink collector";
        pub(crate) streams_opened;
        pub(crate) streams_closed;
    }
}

impl StreamSnapshot {
    /// Events that occurred between `earlier` and `self`.
    pub fn since(&self, earlier: &StreamSnapshot) -> StreamSnapshot {
        StreamSnapshot {
            records_emitted: self.records_emitted - earlier.records_emitted,
            records_collected: self.records_collected - earlier.records_collected,
            streams_opened: self.streams_opened - earlier.streams_opened,
            streams_closed: self.streams_closed - earlier.streams_closed,
        }
    }

    /// Records that entered the fabric but have not reached a sink.
    pub fn records_in_flight(&self) -> u64 {
        self.records_emitted.saturating_sub(self.records_collected)
    }

    /// Streams currently open.
    pub fn streams_active(&self) -> u64 {
        self.streams_opened.saturating_sub(self.streams_closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_accumulate_and_diff() {
        let before = snapshot();
        note_stream_opened();
        note_emitted(10);
        note_collected(7);
        note_stream_closed();
        let delta = snapshot().since(&before);
        assert_eq!(delta.records_emitted, 10);
        assert_eq!(delta.records_collected, 7);
        assert_eq!(delta.records_in_flight(), 3);
        assert_eq!(delta.streams_opened, 1);
        assert_eq!(delta.streams_closed, 1);
        assert_eq!(delta.streams_active(), 0);
    }

    #[test]
    fn in_flight_never_underflows() {
        // Collection observed before emission (racy snapshot): clamp to 0.
        let s = StreamSnapshot {
            records_emitted: 3,
            records_collected: 5,
            ..Default::default()
        };
        assert_eq!(s.records_in_flight(), 0);
    }
}
