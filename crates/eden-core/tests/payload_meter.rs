//! The payload meters, read as deltas. The four counters in
//! `eden_core::payload` are process-wide, so these tests live in a binary
//! of their own, away from the unit tests that move payload bytes, and
//! serialize on [`PAYLOAD_METER`]: a test that diffs the meters sees only
//! its own traffic.

use std::sync::Mutex;

use bytes::Bytes;
use eden_core::{payload, wire, SharedList, Text, Value};

static PAYLOAD_METER: Mutex<()> = Mutex::new(());

#[test]
fn counters_accumulate_and_diff() {
    let _meter = PAYLOAD_METER.lock().unwrap();
    let before = payload::snapshot();
    payload::note_copy(100);
    payload::note_cow_break();
    payload::note_share();
    payload::note_share();
    let delta = payload::snapshot().since(&before);
    assert_eq!(delta.payload_copies, 1);
    assert_eq!(delta.payload_bytes_moved, 100);
    assert_eq!(delta.cow_breaks, 1);
    assert_eq!(delta.payload_shares, 2);
}

#[test]
fn decode_shared_aliases_payloads() {
    let _meter = PAYLOAD_METER.lock().unwrap();
    let v = Value::record([
        ("name", Value::str("shared-me")),
        ("blob", Value::bytes(vec![3u8; 64])),
    ]);
    let buf = Bytes::from(wire::encode(&v));
    let before = payload::snapshot();
    let dec = wire::decode_shared(&buf).unwrap();
    let delta = payload::snapshot().since(&before);
    assert_eq!(delta.payload_copies, 0, "decode_shared must not copy");
    assert_eq!(dec, v);
    let range = buf.as_ref().as_ptr_range();
    let s = dec.field("name").unwrap().as_text().unwrap();
    let sp = s.as_str().as_ptr();
    assert!(range.contains(&sp), "text must alias the input buffer");
    let b = dec.field("blob").unwrap().as_bytes().unwrap();
    assert!(range.contains(&b.as_ref().as_ptr()));
}

#[test]
fn clone_shares_not_copies() {
    let _meter = PAYLOAD_METER.lock().unwrap();
    let v = Value::list(vec![Value::str("payload"), Value::Int(1)]);
    let before = payload::snapshot();
    let c = v.clone();
    let delta = payload::snapshot().since(&before);
    assert_eq!(delta.payload_copies, 0, "clone must not copy payload");
    assert_eq!(delta.payload_bytes_moved, 0);
    assert_eq!(delta.payload_shares, 1);
    match (&v, &c) {
        (Value::List(a), Value::List(b)) => assert!(a.ptr_eq(b)),
        _ => unreachable!(),
    }
}

#[test]
fn cow_break_only_when_aliased() {
    let _meter = PAYLOAD_METER.lock().unwrap();
    // Unique list: mutation is free, no cow_break.
    let mut unique = SharedList::new(vec![Value::Int(1)]);
    let before = payload::snapshot();
    unique.to_mut().push(Value::Int(2));
    assert_eq!(payload::snapshot().since(&before).cow_breaks, 0);

    // Aliased list: mutation breaks the sharing, once.
    let mut a = SharedList::new(vec![Value::Int(1)]);
    let b = a.clone();
    let before = payload::snapshot();
    a.to_mut().push(Value::Int(2));
    assert_eq!(payload::snapshot().since(&before).cow_breaks, 1);
    // The alias is unaffected: semantics of the old deep-copy world.
    assert_eq!(b.len(), 1);
    assert_eq!(a.len(), 2);
    assert!(!a.ptr_eq(&b));
}

#[test]
fn take_field_shares_only_what_it_takes() {
    let _meter = PAYLOAD_METER.lock().unwrap();
    let record = || {
        Value::record([
            ("items", Value::list(vec![Value::str("a")])),
            ("name", Value::str("n")),
            ("end", Value::Bool(false)),
        ])
    };
    // Unique: the field moves out; nothing is shared, nothing copied.
    let unique = record();
    let before = payload::snapshot();
    let items = unique.take_field("items").unwrap();
    let delta = payload::snapshot().since(&before);
    assert_eq!((delta.payload_shares, delta.cow_breaks), (0, 0));
    assert_eq!(items.as_list().unwrap().len(), 1);

    // Aliased: the taken field is shared once; the others are untouched.
    let kept = record();
    let alias = kept.clone();
    let before = payload::snapshot();
    let name = alias.take_field("name").unwrap();
    let delta = payload::snapshot().since(&before);
    assert_eq!((delta.payload_shares, delta.cow_breaks), (1, 0));
    assert_eq!(name.as_text().unwrap(), &Text::from("n"));
    assert_eq!(kept.field("name").unwrap().as_str().unwrap(), "n");
}

#[test]
fn deep_copy_moves_every_payload_byte() {
    let _meter = PAYLOAD_METER.lock().unwrap();
    let v = Value::record([
        ("s", Value::str("hello")),
        ("b", Value::bytes(vec![0u8; 10])),
        ("l", Value::list(vec![Value::str("xy")])),
    ]);
    let before = payload::snapshot();
    let copy = v.deep_copy();
    let delta = payload::snapshot().since(&before);
    assert_eq!(copy, v);
    // Payload leaves: "hello" (5) + bytes (10) + "xy" (2) + keys (1+1+1).
    assert_eq!(delta.payload_bytes_moved, 5 + 10 + 2 + 3);
    assert!(delta.payload_copies >= 3);
    match (&v, &copy) {
        (Value::Record(a), Value::Record(b)) => assert!(!a.ptr_eq(b)),
        _ => unreachable!(),
    }
}

/// A spine kept by `into_vec` and reused by `SharedList::new` moves no
/// payload: unwrapping a unique list and wrapping its items again meters
/// nothing, and an aliased one meters the element shares its copy makes.
#[test]
fn a_reused_spine_meters_what_a_fresh_one_did() {
    let _meter = PAYLOAD_METER.lock().unwrap();
    let items = || vec![Value::str("a"), Value::Int(2), Value::str("c")];
    let before = payload::snapshot();
    for _ in 0..4 {
        let list = SharedList::new(items());
        assert_eq!(SharedList::new(list.into_vec()).into_vec(), items());
    }
    assert_eq!(payload::snapshot().since(&before), Default::default());

    let list = SharedList::new(items());
    let alias = list.clone();
    let before = payload::snapshot();
    assert_eq!(alias.into_vec(), items());
    let delta = payload::snapshot().since(&before);
    assert_eq!((delta.payload_shares, delta.payload_copies), (2, 0));
    drop(list);
}
