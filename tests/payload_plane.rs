//! Zero-copy payload plane, observed end to end.
//!
//! A write-only fan-out duplicates *references*, not payloads: every
//! branch of the tree sees the same underlying allocation, a CoW break
//! in one branch is invisible to the others, and the data-plane meters
//! record no extra copies as the fan-out widens.

use std::sync::Mutex;
use std::time::Duration;

use eden::core::{payload, wire, Value};
use eden::kernel::Kernel;
use eden::transput::collector::Collector;
use eden::transput::protocol::OUTPUT_NAME;
use eden::transput::source::VecSource;
use eden::transput::transform::Identity;
use eden::transput::{Input, Output, OutputPort, OutputWiring, Stage, StageConfig};

/// Payload counters are process-wide; serialize the tests in this binary
/// that copy payloads or assert on counter deltas, so a test that asserts
/// sees only its own traffic.
static PAYLOAD_METER: Mutex<()> = Mutex::new(());

const BODY_BYTES: usize = 64 * 1024;

fn big_datum(seq: i64) -> Value {
    Value::record([
        ("seq", Value::Int(seq)),
        ("body", Value::str("x".repeat(BODY_BYTES))),
    ])
}

/// Run `data` through source → identity filter → `width` acceptor sinks,
/// returning each branch's collected output.
fn fan_out(kernel: &Kernel, data: Vec<Value>, width: usize) -> Vec<Vec<Value>> {
    let mut collectors = Vec::new();
    let mut wiring = OutputWiring::default();
    for _ in 0..width {
        let c = Collector::new();
        let sink = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::local(c.clone()),
                StageConfig::default(),
            )))
            .unwrap();
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink));
        collectors.push(c);
    }
    let filter = kernel
        .spawn(Box::new(Stage::filter(
            Input::Passive,
            Box::new(Identity),
            Output::Active(wiring),
            StageConfig::default(),
        )))
        .unwrap();
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::new(data))),
            Output::push(filter),
            StageConfig::batch(4),
        )))
        .unwrap();
    kernel.invoke(source, "Start", Value::Unit).wait().unwrap();
    collectors
        .into_iter()
        .map(|c| c.wait_done(Duration::from_secs(15)).unwrap())
        .collect()
}

fn body_text(v: &Value) -> &eden::core::Text {
    v.field("body").unwrap().as_text().unwrap()
}

#[test]
fn fan_out_branches_alias_one_allocation() {
    let kernel = Kernel::new();
    let data: Vec<Value> = (0..4).map(big_datum).collect();
    let branches = fan_out(&kernel, data.clone(), 3);
    kernel.shutdown();

    for branch in &branches {
        assert_eq!(branch.len(), 4);
    }
    for i in 0..4 {
        let first = body_text(&branches[0][i]);
        // Every branch's datum i shares the allocation the source built —
        // the fan-out moved references, not 64 KiB bodies.
        assert!(first.ptr_eq(body_text(&data[i])));
        for branch in &branches[1..] {
            assert!(first.ptr_eq(body_text(&branch[i])));
        }
    }
}

#[test]
fn cow_break_in_one_branch_is_invisible_to_others() {
    let kernel = Kernel::new();
    let branches = fan_out(&kernel, vec![big_datum(7)], 2);
    kernel.shutdown();

    let theirs = branches[1][0].clone();
    assert!(body_text(&branches[0][0]).ptr_eq(body_text(&theirs)));

    // One consumer rewrites its record in place; make_mut must unshare.
    let mut mine = branches[0][0].clone();
    if let Value::Record(rec) = &mut mine {
        for (name, slot) in rec.to_mut() {
            if name.as_str() == "body" {
                *slot = Value::str("rewritten");
            }
        }
    } else {
        panic!("expected record");
    }

    assert_eq!(mine.field("body").unwrap().as_str().unwrap(), "rewritten");
    // The sibling branch still sees the original body, still aliased to
    // the source allocation.
    assert_eq!(body_text(&theirs).len(), BODY_BYTES);
    assert!(body_text(&theirs).ptr_eq(body_text(&branches[1][0])));
}

#[test]
fn decoded_payloads_alias_the_wire_buffer_through_fan_out() {
    // Datums that arrive off the wire stay zero-copy all the way through
    // a fan-out: decode_shared slices the receive buffer, and every
    // branch aliases those slices.
    let _guard = PAYLOAD_METER.lock().unwrap();
    let encoded = bytes::Bytes::from(wire::encode(&big_datum(1)));
    let decoded = wire::decode_shared(&encoded).unwrap();
    let range = encoded.as_ptr() as usize..encoded.as_ptr() as usize + encoded.len();
    let body = body_text(&decoded).as_shared_bytes();
    assert!(range.contains(&(body.as_ptr() as usize)));

    let kernel = Kernel::new();
    let branches = fan_out(&kernel, vec![decoded.clone()], 2);
    kernel.shutdown();
    for branch in &branches {
        assert!(body_text(&branch[0]).ptr_eq(body_text(&decoded)));
    }
}

#[test]
fn checkpoint_store_path_adds_no_payload_copies() {
    // PR 2's invariant extended through the durability plane: the caller
    // pays exactly one metered copy — wire-encoding the passive
    // representation — and everything after that moves references. The
    // redesigned `StableStore::store(Bytes)` hands the encode buffer to
    // the backend without re-copying, and `load` returns bytes that alias
    // the very allocation that was stored. A journal entry beside the
    // checkpoint travels the same way.
    let _guard = PAYLOAD_METER.lock().unwrap();
    let store = eden::kernel::StableStore::new();
    let uid = eden::core::Uid::fresh();
    let encoded: bytes::Bytes = wire::encode(&big_datum(7)).into();
    let entry: bytes::Bytes = wire::encode(&big_datum(8)).into();

    let before = payload::snapshot();
    store.store(uid, "Datum", encoded.clone()).unwrap();
    store.append(uid, entry.clone()).unwrap();
    let rec = store.load(uid).unwrap();
    let delta = payload::snapshot().since(&before);

    assert_eq!(
        delta.payload_copies, 0,
        "checkpoint store/load must move no payload bytes"
    );
    assert_eq!(
        rec.bytes.as_ptr(),
        encoded.as_ptr(),
        "loaded checkpoint must alias the stored allocation"
    );
    assert_eq!(
        rec.journal[0].as_ptr(),
        entry.as_ptr(),
        "and so its journal"
    );
}

#[test]
fn fan_out_width_adds_no_payload_copies() {
    let _guard = PAYLOAD_METER.lock().unwrap();
    let kernel = Kernel::new();

    let mut copies_by_width = Vec::new();
    for width in [1usize, 2, 3, 4] {
        let data: Vec<Value> = (0..4).map(big_datum).collect();
        let before = payload::snapshot();
        let branches = fan_out(&kernel, data, width);
        let delta = payload::snapshot().since(&before);
        assert_eq!(branches.len(), width);
        copies_by_width.push(delta.payload_copies);
    }
    kernel.shutdown();

    // A fan-out moves references: no payload copy at any width, so none
    // is added per extra consumer.
    assert_eq!(
        copies_by_width,
        [0, 0, 0, 0],
        "fan-out copied payloads at widths 1..=4"
    );
}
