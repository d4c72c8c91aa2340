//! A tag-length-value codec for [`Value`].
//!
//! Checkpointing (§1 of the paper) requires a durable byte representation of
//! an Eject's state — its *passive representation*. Every Eject in this
//! workspace represents its state as a [`Value`], and this module provides
//! the byte encoding. The format is a conventional TLV scheme: a one-byte
//! tag, LEB128 ("varint") lengths, little-endian fixed-width scalars.
//!
//! The decoder is defensive: it bounds recursion depth, validates UTF-8, and
//! never panics on malformed input — corrupt checkpoints surface as
//! [`EdenError::CorruptCheckpoint`].
//!
//! # Zero-copy decode
//!
//! [`decode_shared`] decodes out of a shared [`Bytes`] buffer: string,
//! byte-string and field-name payloads are O(1) *slices* of the input
//! buffer rather than fresh allocations, so reactivating an Eject from a
//! checkpoint moves no payload bytes. [`decode`] remains for callers that
//! only hold a `&[u8]`; it pays one copy of the whole input up front and
//! then shares slices of that copy.
//!
//! [`encoded_len`] returns the exact output size of [`encode`], which sizes
//! its buffer with it — the checkpoint path never reallocates mid-encode.

use bytes::Bytes;

use crate::error::{EdenError, Result};
use crate::payload;
use crate::uid::Uid;
use crate::value::{SharedList, SharedRecord, Text, Value};

/// Maximum nesting depth the decoder will accept. Checkpoints produced by
/// this workspace are shallow; the bound exists to keep malformed input from
/// exhausting the stack.
const MAX_DEPTH: usize = 64;

const TAG_UNIT: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_STR: u8 = 0x04;
const TAG_BYTES: u8 = 0x05;
const TAG_UID: u8 = 0x06;
const TAG_LIST: u8 = 0x07;
const TAG_RECORD: u8 = 0x08;

/// The number of bytes `put_varint` emits for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7).max(1)
}

/// The exact number of bytes [`encode`] produces for `value`.
pub fn encoded_len(value: &Value) -> usize {
    match value {
        Value::Unit | Value::Bool(_) => 1,
        Value::Int(_) => 9,
        Value::Uid(_) => 17,
        Value::Str(s) => 1 + varint_len(s.len() as u64) + s.len(),
        Value::Bytes(b) => 1 + varint_len(b.len() as u64) + b.len(),
        Value::List(items) => {
            1 + varint_len(items.len() as u64)
                + items.iter().map(encoded_len).sum::<usize>()
        }
        Value::Record(fields) => {
            1 + varint_len(fields.len() as u64)
                + fields
                    .iter()
                    .map(|(name, v)| {
                        varint_len(name.len() as u64) + name.len() + encoded_len(v)
                    })
                    .sum::<usize>()
        }
    }
}

/// Encode a value to bytes. The buffer is sized with [`encoded_len`] so no
/// mid-encode reallocation occurs; the serialisation is metered as one
/// payload copy (the datum's bytes physically move into the output).
pub fn encode(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(value));
    encode_into(value, &mut out);
    payload::note_copy(out.len());
    out
}

/// Encode a value, appending to an existing buffer.
pub fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Unit => out.push(TAG_UNIT),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_str().as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            put_varint(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::Uid(u) => {
            out.push(TAG_UID);
            out.extend_from_slice(&u.to_bytes());
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            put_varint(out, items.len() as u64);
            for item in items.iter() {
                encode_into(item, out);
            }
        }
        Value::Record(fields) => {
            out.push(TAG_RECORD);
            put_varint(out, fields.len() as u64);
            for (name, v) in fields.iter() {
                put_varint(out, name.len() as u64);
                out.extend_from_slice(name.as_str().as_bytes());
                encode_into(v, out);
            }
        }
    }
}

/// Decode a value from a plain byte slice. The entire input must be
/// consumed.
///
/// Pays one copy of `input` into a shared buffer, then aliases slices of
/// that copy — callers that already hold a [`Bytes`] should use
/// [`decode_shared`] and move nothing.
pub fn decode(input: &[u8]) -> Result<Value> {
    if !input.is_empty() {
        payload::note_copy(input.len());
    }
    decode_shared(&Bytes::copy_from_slice(input))
}

/// Decode a value out of a shared buffer, zero-copy: `Str`, `Bytes` and
/// record field names are O(1) slices aliasing `input`. The entire input
/// must be consumed.
pub fn decode_shared(input: &Bytes) -> Result<Value> {
    let mut cursor = Cursor { buf: input, pos: 0 };
    let value = decode_one(&mut cursor, 0)?;
    if cursor.pos != input.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after value",
            input.len() - cursor.pos
        )));
    }
    Ok(value)
}

struct Cursor<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn advance(&mut self, n: usize) -> Result<usize> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt(format!("truncated: wanted {n} bytes at {}", self.pos)))?;
        let start = self.pos;
        self.pos = end;
        Ok(start)
    }

    /// A borrowed view of the next `n` bytes (for scalars).
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let start = self.advance(n)?;
        Ok(&self.buf.as_ref()[start..start + n])
    }

    /// A shared, zero-copy slice of the next `n` bytes (for payloads).
    fn take_shared(&mut self, n: usize) -> Result<Bytes> {
        let start = self.advance(n)?;
        Ok(self.buf.slice(start..start + n))
    }

    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
}

fn corrupt(msg: String) -> EdenError {
    EdenError::CorruptCheckpoint(msg)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(cur: &mut Cursor<'_>) -> Result<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = cur.byte()?;
        if shift >= 63 && byte > 1 {
            return Err(corrupt("varint overflow".to_owned()));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt("varint too long".to_owned()));
        }
    }
}

fn decode_len(cur: &mut Cursor<'_>) -> Result<usize> {
    let len = get_varint(cur)?;
    // A length can never exceed the remaining input; this check stops
    // malicious lengths from causing huge pre-allocations.
    let remaining = (cur.buf.len() - cur.pos) as u64;
    if len > remaining {
        return Err(corrupt(format!("length {len} exceeds remaining {remaining}")));
    }
    Ok(len as usize)
}

/// Take a UTF-8-validated, zero-copy text of `len` bytes.
fn take_text(cur: &mut Cursor<'_>, len: usize, what: &str) -> Result<Text> {
    let shared = cur.take_shared(len)?;
    Text::from_shared(shared).map_err(|e| corrupt(format!("invalid utf-8 in {what}: {e}")))
}

fn decode_one(cur: &mut Cursor<'_>, depth: usize) -> Result<Value> {
    if depth > MAX_DEPTH {
        return Err(corrupt("nesting too deep".to_owned()));
    }
    match cur.byte()? {
        TAG_UNIT => Ok(Value::Unit),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => {
            let mut b = [0u8; 8];
            b.copy_from_slice(cur.take(8)?);
            Ok(Value::Int(i64::from_le_bytes(b)))
        }
        TAG_STR => {
            let len = decode_len(cur)?;
            Ok(Value::Str(take_text(cur, len, "string")?))
        }
        TAG_BYTES => {
            let len = decode_len(cur)?;
            Ok(Value::Bytes(cur.take_shared(len)?))
        }
        TAG_UID => {
            let mut b = [0u8; 16];
            b.copy_from_slice(cur.take(16)?);
            Ok(Value::Uid(Uid::from_bytes(&b)))
        }
        TAG_LIST => {
            let len = decode_len(cur)?;
            let mut items = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                items.push(decode_one(cur, depth + 1)?);
            }
            Ok(Value::List(SharedList::new(items)))
        }
        TAG_RECORD => {
            let len = decode_len(cur)?;
            // A field takes two bytes at least, so the input bounds the one
            // allocation the counted iterator below sizes. After an error
            // the rest are placeholders, and the record is dropped.
            if len > (cur.buf.len() - cur.pos) / 2 {
                return Err(corrupt(format!("{len} fields cannot fit the input")));
            }
            let mut failed = None;
            let fields: SharedRecord = (0..len)
                .map(|_| {
                    if failed.is_none() {
                        match decode_field(cur, depth) {
                            Ok(field) => return field,
                            Err(e) => failed = Some(e),
                        }
                    }
                    (Text::new(), Value::Unit)
                })
                .collect();
            match failed {
                Some(e) => Err(e),
                None => Ok(Value::Record(fields)),
            }
        }
        tag => Err(corrupt(format!("unknown tag 0x{tag:02x}"))),
    }
}

fn decode_field(cur: &mut Cursor<'_>, depth: usize) -> Result<(Text, Value)> {
    let name_len = decode_len(cur)?;
    let name = take_text(cur, name_len, "field name")?;
    Ok((name, decode_one(cur, depth + 1)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let enc = encode(&v);
        let dec = decode(&enc).expect("decode");
        assert_eq!(dec, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Value::Unit);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::str(""));
        roundtrip(Value::str("héllo, wörld"));
        roundtrip(Value::bytes(vec![0u8, 255, 1, 2]));
        roundtrip(Value::Uid(Uid::fresh()));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Value::list(vec![]));
        roundtrip(Value::list(vec![
            Value::Int(1),
            Value::str("two"),
            Value::list(vec![Value::Unit]),
        ]));
        roundtrip(Value::record([
            ("name", Value::str("readme")),
            ("uid", Value::Uid(Uid::fresh())),
            ("entries", Value::list(vec![Value::Int(3)])),
        ]));
    }

    #[test]
    fn encoded_len_is_exact() {
        for v in [
            Value::Unit,
            Value::Bool(true),
            Value::Int(-5),
            Value::Uid(Uid::fresh()),
            Value::str(""),
            Value::str("hello"),
            Value::str("x".repeat(200)),
            Value::bytes(vec![7u8; 300]),
            Value::list(vec![Value::Int(1), Value::str("two")]),
            Value::record([
                ("a", Value::list(vec![Value::str("deep"), Value::Unit])),
                ("bb", Value::bytes(vec![0u8; 1000])),
            ]),
        ] {
            assert_eq!(encode(&v).len(), encoded_len(&v), "for {v:?}");
        }
    }

    #[test]
    fn encode_never_reallocates() {
        // The hinted capacity must hold the whole encoding: capacity after
        // the encode equals the capacity before (Vec only grows on push
        // beyond capacity).
        let v = Value::record([
            ("items", Value::list((0..50).map(|i| Value::str(format!("record-{i}"))).collect::<Vec<_>>())),
            ("blob", Value::bytes(vec![9u8; 4096])),
        ]);
        let out = encode(&v);
        assert_eq!(out.len(), encoded_len(&v));
        assert_eq!(out.capacity(), encoded_len(&v), "encode reallocated");
    }

    #[test]
    fn empty_input_is_corrupt() {
        assert!(matches!(
            decode(&[]),
            Err(EdenError::CorruptCheckpoint(_))
        ));
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        assert!(matches!(
            decode(&[0xff]),
            Err(EdenError::CorruptCheckpoint(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = encode(&Value::Unit);
        enc.push(0);
        assert!(matches!(
            decode(&enc),
            Err(EdenError::CorruptCheckpoint(_))
        ));
    }

    #[test]
    fn truncated_string_rejected() {
        let enc = encode(&Value::str("hello"));
        assert!(decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn oversized_length_rejected() {
        // TAG_STR followed by a varint length far beyond the input.
        let input = [TAG_STR, 0xff, 0xff, 0x03];
        assert!(decode(&input).is_err());
    }

    #[test]
    fn deep_nesting_rejected() {
        // 100 nested single-element lists exceed MAX_DEPTH.
        let mut buf = Vec::new();
        for _ in 0..100 {
            buf.push(TAG_LIST);
            buf.push(1);
        }
        buf.push(TAG_UNIT);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut input = vec![TAG_STR];
        input.extend_from_slice(&[0xff; 10]);
        input.push(0x7f);
        assert!(decode(&input).is_err());
    }

    #[test]
    fn varint_len_matches_put_varint() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out.len(), varint_len(v), "varint_len({v})");
        }
    }

    #[test]
    fn malformed_inputs_never_panic() {
        // Fuzz-lite: every 2-byte prefix of tags and junk must error or
        // decode, never panic.
        for a in 0u8..=16 {
            for b in 0u8..=16 {
                let _ = decode(&[a, b]);
            }
        }
    }
}
