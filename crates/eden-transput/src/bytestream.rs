//! Byte-stream transput (§6).
//!
//! "The design of the Unix operating system is based on the assumption
//! that ... all programs communicate by byte-stream. Accordingly, all
//! files are considered to be an unstructured sequence of bytes. ...
//! Nothing I have said about Eden transput constrains Eden streams to be
//! streams of bytes. Streams of arbitrary records fit into the protocol
//! just as well."
//!
//! This module provides the byte flavour: chunked [`Value::Bytes`] records
//! and the two bridging transforms — [`LineSplitter`] (bytes → text lines)
//! and [`LineJoiner`] (text lines → bytes) — so byte-oriented and
//! record-oriented filters compose in one pipeline.

use bytes::{Bytes, BytesMut};
use eden_core::Value;

use crate::protocol::Batch;
use crate::source::PullSource;
use crate::transform::{Emitter, Transform};

/// A source of byte chunks over a single buffer.
#[derive(Debug)]
pub struct BytesSource {
    data: Bytes,
    offset: usize,
    chunk: usize,
}

impl BytesSource {
    /// Stream `data` in chunks of `chunk` bytes (per record; `Transfer`
    /// batching is independent and applies on top).
    pub fn new(data: impl Into<Bytes>, chunk: usize) -> BytesSource {
        BytesSource {
            data: data.into(),
            offset: 0,
            chunk: chunk.max(1),
        }
    }
}

impl PullSource for BytesSource {
    fn pull(&mut self, max: usize) -> Batch {
        let mut items = Vec::new();
        while items.len() < max && self.offset < self.data.len() {
            let end = (self.offset + self.chunk).min(self.data.len());
            items.push(Value::Bytes(self.data.slice(self.offset..end)));
            self.offset = end;
        }
        if self.offset >= self.data.len() {
            Batch::last(items)
        } else {
            Batch::more(items)
        }
    }
}

/// Reassemble a stream's byte records into one buffer (test/sink helper).
pub fn concat_bytes<'a>(items: impl IntoIterator<Item = &'a Value>) -> Bytes {
    let mut out = BytesMut::new();
    for item in items {
        match item {
            Value::Bytes(b) => out.extend_from_slice(b),
            Value::Str(s) => out.extend_from_slice(s.as_bytes()),
            _ => {}
        }
    }
    out.freeze()
}

/// Splits incoming byte chunks into `Value::Str` lines at `\n` boundaries,
/// buffering partial lines across chunk boundaries. The final unterminated
/// line (if any) is emitted at flush.
#[derive(Default, Debug)]
pub struct LineSplitter {
    partial: Vec<u8>,
}

impl LineSplitter {
    /// A fresh splitter.
    pub fn new() -> LineSplitter {
        LineSplitter::default()
    }

    fn emit_line(buf: &mut Vec<u8>, out: &mut Emitter) {
        // Tolerate CRLF.
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        out.emit(Value::str(String::from_utf8_lossy(buf).into_owned()));
        buf.clear();
    }
}

impl Transform for LineSplitter {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        let chunk: &[u8] = match &item {
            Value::Bytes(b) => b,
            Value::Str(s) => s.as_bytes(),
            _ => {
                out.emit(item);
                return;
            }
        };
        for &byte in chunk {
            if byte == b'\n' {
                Self::emit_line(&mut self.partial, out);
            } else {
                self.partial.push(byte);
            }
        }
    }
    fn flush(&mut self, out: &mut Emitter) {
        if !self.partial.is_empty() {
            Self::emit_line(&mut self.partial, out);
        }
    }
    fn name(&self) -> &'static str {
        "line-splitter"
    }
}

/// Joins `Value::Str` lines back into byte chunks (one chunk per line,
/// newline-terminated) — the inverse of [`LineSplitter`] for
/// newline-terminated text.
#[derive(Default, Debug)]
pub struct LineJoiner;

impl LineJoiner {
    /// A fresh joiner.
    pub fn new() -> LineJoiner {
        LineJoiner
    }
}

impl Transform for LineJoiner {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        match &item {
            Value::Str(s) => {
                let mut bytes = BytesMut::with_capacity(s.len() + 1);
                bytes.extend_from_slice(s.as_bytes());
                bytes.extend_from_slice(b"\n");
                out.emit(Value::Bytes(bytes.freeze()));
            }
            _ => out.emit(item),
        }
    }
    fn name(&self) -> &'static str {
        "line-joiner"
    }
}

/// Re-chunk a byte stream into fixed-size records (accumulates across
/// input boundaries; the final short chunk flushes at end).
#[derive(Debug)]
pub struct Rechunker {
    size: usize,
    pending: BytesMut,
}

impl Rechunker {
    /// Output chunks of exactly `size` bytes (except the last).
    pub fn new(size: usize) -> Rechunker {
        Rechunker {
            size: size.max(1),
            pending: BytesMut::new(),
        }
    }
}

impl Transform for Rechunker {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        match &item {
            Value::Bytes(b) => self.pending.extend_from_slice(b),
            Value::Str(s) => self.pending.extend_from_slice(s.as_bytes()),
            _ => {
                out.emit(item);
                return;
            }
        }
        while self.pending.len() >= self.size {
            let chunk = self.pending.split_to(self.size).freeze();
            out.emit(Value::Bytes(chunk));
        }
    }
    fn flush(&mut self, out: &mut Emitter) {
        if !self.pending.is_empty() {
            out.emit(Value::Bytes(self.pending.split().freeze()));
        }
    }
    fn name(&self) -> &'static str {
        "rechunk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::apply_offline;

    #[test]
    fn bytes_source_chunks_and_ends() {
        let mut s = BytesSource::new(&b"abcdefgh"[..], 3);
        let b = s.pull(2);
        assert_eq!(b.items.len(), 2);
        assert_eq!(b.items[0].as_bytes().unwrap().as_ref(), b"abc");
        assert!(!b.end);
        let b = s.pull(8);
        assert_eq!(b.items.len(), 1);
        assert_eq!(b.items[0].as_bytes().unwrap().as_ref(), b"gh");
        assert!(b.end);
    }

    #[test]
    fn splitter_handles_chunk_boundaries() {
        let chunks = vec![
            Value::bytes(&b"hel"[..]),
            Value::bytes(&b"lo\nwor"[..]),
            Value::bytes(&b"ld\ntail"[..]),
        ];
        let (out, _) = apply_offline(&mut LineSplitter::new(), chunks);
        assert_eq!(
            out,
            vec![Value::str("hello"), Value::str("world"), Value::str("tail")]
        );
    }

    #[test]
    fn splitter_tolerates_crlf() {
        let (out, _) = apply_offline(
            &mut LineSplitter::new(),
            vec![Value::bytes(&b"a\r\nb\n"[..])],
        );
        assert_eq!(out, vec![Value::str("a"), Value::str("b")]);
    }

    #[test]
    fn split_join_roundtrip() {
        let text = b"line one\nline two\nline three\n";
        let chunks = vec![Value::bytes(&text[..])];
        let (lines, _) = apply_offline(&mut LineSplitter::new(), chunks);
        let (rejoined, _) = apply_offline(&mut LineJoiner::new(), lines);
        assert_eq!(concat_bytes(rejoined.iter()).as_ref(), &text[..]);
    }

    #[test]
    fn rechunker_fixed_sizes() {
        let input = vec![Value::bytes(&b"abcde"[..]), Value::bytes(&b"fghij"[..])];
        let (out, _) = apply_offline(&mut Rechunker::new(4), input);
        let sizes: Vec<usize> = out.iter().map(|v| v.as_bytes().unwrap().len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(concat_bytes(out.iter()).as_ref(), b"abcdefghij");
    }

    #[test]
    fn non_byte_records_pass_through() {
        let (out, _) = apply_offline(&mut Rechunker::new(4), vec![Value::Int(1)]);
        assert_eq!(out, vec![Value::Int(1)]);
    }

    #[test]
    fn empty_source_is_end() {
        let mut s = BytesSource::new(Bytes::new(), 4);
        let b = s.pull(1);
        assert!(b.end && b.is_empty());
    }
}
