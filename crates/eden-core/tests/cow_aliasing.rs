//! Aliasing soundness of the zero-copy payload plane, written to run
//! under `cargo miri test -p eden-core` (the `static-analysis` CI job).
//!
//! The payload plane's whole point is that clones alias: `Text` views a
//! shared `Bytes` buffer through `str::from_utf8_unchecked`, and
//! `SharedList`/`SharedRecord` hand out `&mut` into an `Arc` (a vector
//! for a list, a slice for a record) via `make_mut`. Those are exactly
//! the patterns where a provenance or stacked-borrows mistake would be
//! invisible to normal tests (the bytes still compare equal) but caught by
//! miri. Each test interleaves reads through one alias with mutation
//! through another, the shape miri is pickiest about.

use bytes::Bytes;
use eden_core::{SharedList, SharedRecord, Text, Value};

#[test]
fn text_aliases_survive_buffer_handle_drops() {
    let buf = Bytes::from("checkpoint record payload");
    let whole = Text::from_shared(buf.clone()).unwrap();
    let window = Text::from_shared(buf.slice(11..17)).unwrap();
    assert_eq!(window.as_str(), "record");

    // Drop the original handle: the texts keep the allocation alive, and
    // the unchecked UTF-8 view must still be readable through both.
    drop(buf);
    assert_eq!(whole.as_str(), "checkpoint record payload");
    assert_eq!(window.as_str(), "record");

    // A clone is the same span, not a copy.
    let again = window.clone();
    assert!(again.ptr_eq(&window));
    assert_eq!(again.as_str(), "record");
}

#[test]
fn list_cow_break_leaves_the_other_alias_untouched() {
    let mut a = SharedList::new(vec![Value::Int(1), Value::Int(2)]);
    let b = a.clone();
    assert!(a.ptr_eq(&b));
    assert!(a.is_aliased());

    // Mutating through `a` while `b` is alive must copy the spine, and
    // reads through `b` must stay valid across the mutation.
    a.to_mut().push(Value::Int(3));
    assert!(!a.ptr_eq(&b));
    assert_eq!(a.len(), 3);
    assert_eq!(b.len(), 2);
    assert_eq!(b[1], Value::Int(2));

    // Now unique: a second mutation must reuse the allocation in place.
    assert!(!a.is_aliased());
    let spine_before = a.as_ptr();
    a.to_mut()[0] = Value::Int(10);
    assert_eq!(a.as_ptr(), spine_before);
    assert_eq!(a[0], Value::Int(10));
}

#[test]
fn record_cow_break_and_consuming_reads_are_independent() {
    let mut a = SharedRecord::new(vec![
        (Text::from("seq"), Value::Int(7)),
        (Text::from("body"), Value::Str(Text::from("datum"))),
    ]);
    let b = a.clone();

    a.to_mut()[0].1 = Value::Int(8);
    assert!(!a.ptr_eq(&b));
    assert_eq!(b[0].1, Value::Int(7));
    assert_eq!(a[0].1, Value::Int(8));

    // Now unique: a second edit is in place, through the same slice.
    let spine_before = a.as_ptr();
    a.to_mut()[1].1 = Value::Str(Text::from("edited"));
    assert_eq!(a.as_ptr(), spine_before);

    // Taking a field of an aliased record leaves the alias whole; taking
    // one of a unique record moves it out of the allocation it drops.
    let alias = Value::Record(b.clone());
    assert_eq!(
        alias.take_field("body").unwrap(),
        Value::Str(Text::from("datum"))
    );
    assert_eq!(b[1].1, Value::Str(Text::from("datum")));
    assert_eq!(Value::Record(b).take_field("seq").unwrap(), Value::Int(7));
    let body = Value::Record(a).take_field("body").unwrap();
    assert_eq!(body, Value::Str(Text::from("edited")));
}

#[test]
fn nested_payload_clone_shares_every_level() {
    let inner = SharedList::new(vec![Value::Str(Text::from("shared"))]);
    let outer = Value::List(SharedList::new(vec![
        Value::List(inner.clone()),
        Value::Int(0),
    ]));
    let copy = outer.clone();

    // Clone is a reference bump at every level: mutating a deep copy
    // must not disturb the original's nested allocation.
    let mut deep = copy.deep_copy();
    if let Value::List(l) = &mut deep {
        if let Value::List(nested) = &mut l.to_mut()[0] {
            nested.to_mut().push(Value::Int(99));
        }
    }
    assert_eq!(inner.len(), 1, "deep copy mutated a shared child");
    if let Value::List(l) = &outer {
        if let Value::List(nested) = &l[0] {
            assert!(nested.ptr_eq(&inner));
        } else {
            panic!("nested value lost its list shape");
        }
    } else {
        panic!("outer value lost its list shape");
    }
}
