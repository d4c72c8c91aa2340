//! Property tests for the wire codec: arbitrary values roundtrip, and
//! arbitrary byte soup never panics the decoder. The zero-copy properties
//! of `decode_shared` are checked with pointer-range assertions: decoded
//! `Str`/`Bytes` payloads must *alias* the input buffer, not copy it.

use bytes::Bytes;
use eden_core::{wire, Uid, Value};
use proptest::prelude::*;

/// Strategy producing arbitrary `Value` trees of bounded depth and size.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        ".{0,64}".prop_map(Value::str),
        proptest::collection::vec(any::<u8>(), 0..128).prop_map(|v| Value::Bytes(Bytes::from(v))),
        Just(Value::Uid(Uid::fresh())),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..8).prop_map(Value::list),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..8).prop_map(Value::record),
        ]
    })
}

/// Assert every `Str`/`Bytes` payload (and record field name) in `v` lies
/// inside `range` — i.e. the decode aliased the input buffer rather than
/// copying. Empty payloads are exempt: a zero-length slice carries no
/// bytes to alias.
fn assert_aliases(v: &Value, range: &std::ops::Range<*const u8>) -> Result<(), String> {
    match v {
        Value::Str(s) if !s.is_empty() => {
            prop_assert!(
                range.contains(&s.as_str().as_ptr()),
                "decoded text was copied, not aliased"
            );
        }
        Value::Bytes(b) if !b.is_empty() => {
            prop_assert!(
                range.contains(&b.as_ref().as_ptr()),
                "decoded bytes were copied, not aliased"
            );
        }
        Value::List(items) => {
            for item in items.iter() {
                assert_aliases(item, range)?;
            }
        }
        Value::Record(fields) => {
            for (k, val) in fields.iter() {
                if !k.is_empty() {
                    prop_assert!(
                        range.contains(&k.as_str().as_ptr()),
                        "decoded field name was copied, not aliased"
                    );
                }
                assert_aliases(val, range)?;
            }
        }
        _ => {}
    }
    Ok(())
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(v in arb_value()) {
        let encoded = wire::encode(&v);
        let decoded = wire::decode(&encoded).expect("well-formed encoding must decode");
        prop_assert_eq!(decoded, v);
    }

    #[test]
    fn decode_shared_roundtrips_and_aliases(v in arb_value()) {
        let buf = Bytes::from(wire::encode(&v));
        let decoded = wire::decode_shared(&buf).expect("well-formed encoding must decode");
        prop_assert_eq!(&decoded, &v);
        // The aliasing check is the zero-copy proof: every decoded payload
        // pointer lies inside the input buffer. (The process-wide
        // payload-copy counters are not asserted here — sibling tests
        // encode concurrently and would race the delta.)
        assert_aliases(&decoded, &buf.as_ref().as_ptr_range())?;
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any outcome is fine; panicking is not.
        let _ = wire::decode(&bytes);
    }

    #[test]
    fn encoding_is_deterministic(v in arb_value()) {
        prop_assert_eq!(wire::encode(&v), wire::encode(&v));
    }

    #[test]
    fn size_hint_never_panics(v in arb_value()) {
        let _ = v.size_hint();
    }

    #[test]
    fn encoded_len_is_exact(v in arb_value()) {
        prop_assert_eq!(wire::encode(&v).len(), v.encoded_len());
    }

    #[test]
    fn deep_copy_preserves_equality(v in arb_value()) {
        prop_assert_eq!(v.deep_copy(), v);
    }
}
