//! The guards that read `eden-core`'s payload meters: four process-wide
//! counters, so "the shared arm copies nothing" can only be asserted where
//! nothing else copies. Hence a test binary of their own — one process, in
//! which only these two tests run, and a mutex to keep them apart — instead
//! of a seat among the library's unit tests, whose neighbours move payloads
//! at the same time.

use std::sync::Mutex;

use eden_bench::payload_report::{fanout_arm, payload_report, PayloadConfig};

/// Serialise the tests that assert on snapshot deltas so they don't see
/// each other's copies.
static PAYLOAD_METER: Mutex<()> = Mutex::new(());

#[test]
fn smoke_report_renders_and_upholds_invariants() {
    let _guard = PAYLOAD_METER.lock().unwrap();
    let cfg = PayloadConfig {
        record_bytes: 2048,
        records: 6,
        depth: 2,
        widths: [1, 2, 3, 4],
        batch: 2,
    };
    let report = payload_report(&cfg);
    assert!(report.contains("\"shared_copies_constant_across_widths\": true"));
    assert!(report.contains("\"fanout\""));
}

#[test]
fn deep_copy_arm_moves_bytes_shared_arm_does_not() {
    let _guard = PAYLOAD_METER.lock().unwrap();
    let cfg = PayloadConfig {
        record_bytes: 4096,
        records: 4,
        depth: 1,
        widths: [1, 2, 3, 4],
        batch: 2,
    };
    let shared = fanout_arm(&cfg, 3, false);
    let deep = fanout_arm(&cfg, 3, true);
    // Each of the 3 branches copies each of the 4 records privately.
    assert!(
        deep.delta.payload_copies >= 12,
        "deep arm copied only {} times",
        deep.delta.payload_copies
    );
    assert!(
        deep.delta.payload_bytes_moved >= 3 * 4 * 4096,
        "deep arm moved only {} bytes",
        deep.delta.payload_bytes_moved
    );
    assert_eq!(
        shared.delta.payload_copies, 0,
        "shared fan-out must not copy payloads"
    );
}
