//! Segment format for the durable checkpoint log.
//!
//! A segment is a flat file of frames, each
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! where the payload is one wire-encoded [`LogEntry`] — a checkpoint
//! (`Put`), a journal entry beside one (`Append`) or a tombstone (`Del`),
//! all carrying the per-UID version the committer assigned. Replay keeps the
//! **highest-version `Put` per UID and the `Append`s that follow it by
//! version**, which makes frame placement order-free: compaction may rewrite
//! an old frame into a segment that sorts after newer appends without
//! resurrecting it.
//!
//! A scan stops at the first frame that does not check out — header
//! truncated, length running past the file, CRC mismatch, or undecodable
//! payload — and reports the byte length of the valid prefix so recovery
//! can truncate the torn tail. One host-fs `append` is the torn unit:
//! appends are serialised per segment by the committer, so a crash leaves
//! at most one partial frame sequence at the tail.

use bytes::Bytes;
use eden_core::wire::{self, Field};
use eden_core::{EdenError, Result, Uid};

use super::PassiveRecord;

/// Frame header bytes: length + CRC.
pub(crate) const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame payload (sanity check on replay: a
/// corrupt length field must not allocate the moon).
pub(crate) const MAX_FRAME: u32 = 1 << 30;

/// CRC-32 (IEEE 802.3, reflected) slicing-by-8 tables, built at compile
/// time: `[0]` is the bytewise table, and `[k]` advances `[k - 1]` by one
/// more zero byte, so one step folds eight input bytes.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE) of `data`, eight bytes a step.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One logical log record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum LogEntry {
    /// A checkpoint for `uid` (the record carries its version).
    Put {
        /// The checkpointing Eject.
        uid: Uid,
        /// Its passive representation.
        record: PassiveRecord,
    },
    /// A journal entry: extends the `Put` of the version just below its
    /// own, or the `Append` there that does.
    Append {
        /// The journaling Eject.
        uid: Uid,
        /// The entry's version (one past the write before it).
        version: u64,
        /// The wire-encoded entry.
        entry: Bytes,
    },
    /// A tombstone: `uid` was destroyed at `version` (kills every `Put`
    /// with a version ≤ this one, and its journal with it).
    Del {
        /// The destroyed Eject.
        uid: Uid,
        /// The tombstone's version (assigned past the last checkpoint).
        version: u64,
    },
}

impl LogEntry {
    /// The Eject the entry is about.
    pub(crate) fn uid(&self) -> Uid {
        match self {
            LogEntry::Put { uid, .. }
            | LogEntry::Append { uid, .. }
            | LogEntry::Del { uid, .. } => *uid,
        }
    }

    /// Its version.
    pub(crate) fn version(&self) -> u64 {
        match self {
            LogEntry::Put { record, .. } => record.version,
            LogEntry::Append { version, .. } | LogEntry::Del { version, .. } => *version,
        }
    }

    /// Give it the version the committer assigned.
    pub(crate) fn set_version(&mut self, to: u64) {
        match self {
            LogEntry::Put { record, .. } => record.version = to,
            LogEntry::Append { version, .. } | LogEntry::Del { version, .. } => *version = to,
        }
    }
}

/// Room for an entry's field names, tags and scalars beside its
/// variable-length bytes (a `Put` needs at most 85), reserved before
/// framing it.
const ENTRY_OVERHEAD: usize = 96;

/// Append one framed entry to `out`, returning the frame's byte length.
///
/// The payload is written straight from `entry`: the wire encoding of the
/// record [`decode_entry`] reads back, with no
/// [`Value`](eden_core::Value) built on the way.
pub fn encode_frame(entry: &LogEntry, out: &mut Vec<u8>) -> u64 {
    let blobs = match entry {
        LogEntry::Put { record, .. } => record.type_name.len() + record.bytes.len(),
        LogEntry::Append { entry, .. } => entry.len(),
        LogEntry::Del { .. } => 0,
    };
    out.reserve(FRAME_HEADER + ENTRY_OVERHEAD + blobs);
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    let payload_at = out.len();
    let (uid, version) = (Field::Uid(entry.uid()), Field::Int(entry.version() as i64));
    match entry {
        LogEntry::Put { record, .. } => wire::encode_record(
            &[
                ("op", Field::Int(0)),
                ("uid", uid),
                ("type", Field::Str(&record.type_name)),
                ("version", version),
                ("bytes", Field::Bytes(&record.bytes)),
            ],
            out,
        ),
        LogEntry::Append { entry, .. } => wire::encode_record(
            &[
                ("op", Field::Int(2)),
                ("uid", uid),
                ("version", version),
                ("bytes", Field::Bytes(entry)),
            ],
            out,
        ),
        LogEntry::Del { .. } => wire::encode_record(
            &[("op", Field::Int(1)), ("uid", uid), ("version", version)],
            out,
        ),
    }
    let len = out.len() - payload_at;
    let crc = crc32(&out[payload_at..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..payload_at].copy_from_slice(&crc.to_le_bytes());
    (FRAME_HEADER + len) as u64
}

/// Decode one frame payload. Zero-copy: records and entries alias `payload`.
pub(crate) fn decode_entry(payload: &Bytes) -> Result<LogEntry> {
    let v = wire::decode_shared(payload)?;
    let uid = v.field("uid")?.as_uid()?;
    let version = v.field("version")?.as_int()?.max(0) as u64;
    match v.field("op")?.as_int()? {
        0 => Ok(LogEntry::Put {
            uid,
            record: PassiveRecord {
                type_name: v.field("type")?.as_str()?.to_owned(),
                bytes: v.field("bytes")?.as_bytes()?.clone(),
                journal: Vec::new(),
                version,
            },
        }),
        1 => Ok(LogEntry::Del { uid, version }),
        2 => Ok(LogEntry::Append {
            uid,
            version,
            entry: v.field("bytes")?.as_bytes()?.clone(),
        }),
        op => Err(EdenError::BadParameter(format!("unknown log op {op}"))),
    }
}

/// The result of scanning one segment.
#[derive(Debug, Default)]
pub(crate) struct FrameScan {
    /// Decoded entries from the valid prefix, with each frame's length.
    pub(crate) entries: Vec<(LogEntry, u64)>,
    /// Byte length of the valid prefix.
    pub(crate) valid_len: u64,
    /// Whether bytes past the valid prefix exist (a torn tail).
    pub(crate) torn: bool,
}

/// Read a little-endian `u32` at `pos`, or `None` past the end. Recovery
/// treats a short read like any other invalid frame: stop the scan there.
fn read_u32(bytes: &[u8], pos: usize) -> Option<u32> {
    let raw: [u8; 4] = bytes.get(pos..pos + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(raw))
}

/// Walk `bytes` frame by frame, stopping at the first invalid frame.
pub(crate) fn scan_segment(bytes: &Bytes) -> FrameScan {
    let mut scan = FrameScan::default();
    let total = bytes.len();
    let mut pos = 0usize;
    while pos + FRAME_HEADER <= total {
        let (Some(len), Some(crc)) = (read_u32(bytes, pos), read_u32(bytes, pos + 4)) else {
            break;
        };
        if len > MAX_FRAME || pos + FRAME_HEADER + len as usize > total {
            break;
        }
        let payload = bytes.slice(pos + FRAME_HEADER..pos + FRAME_HEADER + len as usize);
        if crc32(&payload) != crc {
            break;
        }
        let Ok(entry) = decode_entry(&payload) else {
            break;
        };
        let frame = FRAME_HEADER as u64 + len as u64;
        scan.entries.push((entry, frame));
        pos += frame as usize;
    }
    scan.valid_len = pos as u64;
    scan.torn = pos < total;
    scan
}

/// The file name for segment `seq` (sorts by sequence).
pub(crate) fn segment_name(seq: u64) -> String {
    format!("seg-{seq:08}.log")
}

/// Parse a segment file name back to its sequence number.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_core::Value;
    use proptest::prelude::*;

    /// The record a frame's payload encodes, built as a [`Value`]: the
    /// reference `encode_frame` must match byte for byte.
    fn to_value(entry: &LogEntry) -> Value {
        match entry {
            LogEntry::Put { uid, record } => Value::record([
                ("op", Value::Int(0)),
                ("uid", Value::Uid(*uid)),
                ("type", Value::str(record.type_name.clone())),
                ("version", Value::Int(record.version as i64)),
                ("bytes", Value::bytes(record.bytes.clone())),
            ]),
            LogEntry::Append {
                uid,
                version,
                entry,
            } => Value::record([
                ("op", Value::Int(2)),
                ("uid", Value::Uid(*uid)),
                ("version", Value::Int(*version as i64)),
                ("bytes", Value::bytes(entry.clone())),
            ]),
            LogEntry::Del { uid, version } => Value::record([
                ("op", Value::Int(1)),
                ("uid", Value::Uid(*uid)),
                ("version", Value::Int(*version as i64)),
            ]),
        }
    }

    /// CRC-32 (IEEE) one byte a step, the reference for [`crc32`].
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn frames_are_the_wire_encoding_of_the_entry_record(
            op in 0u8..3,
            version in prop_oneof![0u64..200, any::<u64>()],
            type_name in "[ -~]{0,40}",
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let (uid, bytes) = (Uid::fresh(), Bytes::from(bytes));
            let entry = match op {
                0 => LogEntry::Put {
                    uid,
                    record: PassiveRecord {
                        type_name,
                        bytes,
                        journal: Vec::new(),
                        version,
                    },
                },
                1 => LogEntry::Append { uid, version, entry: bytes },
                _ => LogEntry::Del { uid, version },
            };
            let mut out = vec![7];
            let n = encode_frame(&entry, &mut out);
            let payload = wire::encode(&to_value(&entry));
            prop_assert_eq!(n as usize, FRAME_HEADER + payload.len());
            prop_assert_eq!(&out[1..5], &(payload.len() as u32).to_le_bytes());
            prop_assert_eq!(&out[5..9], &crc32_bytewise(&payload).to_le_bytes());
            prop_assert_eq!(&out[9..], &payload[..]);
        }

        #[test]
        fn crc32_matches_the_bytewise_reference_at_every_alignment(
            data in proptest::collection::vec(any::<u8>(), 0..=100),
        ) {
            // At each offset from an eight-byte boundary the data can start.
            for skip in 0..8 {
                let mut shifted = vec![0xA5; skip];
                shifted.extend_from_slice(&data);
                prop_assert_eq!(crc32(&shifted[skip..]), crc32_bytewise(&data), "offset {}", skip);
            }
        }
    }

    fn put(uid: Uid, version: u64, payload: &[u8]) -> LogEntry {
        LogEntry::Put {
            uid,
            record: PassiveRecord {
                type_name: "T".into(),
                bytes: Bytes::copy_from_slice(payload),
                journal: Vec::new(),
                version,
            },
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A second, longer than one eight-byte step plus a tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frame_roundtrip() {
        let uid = Uid::fresh();
        let mut buf = Vec::new();
        let n1 = encode_frame(&put(uid, 1, &[1, 2, 3]), &mut buf);
        let n2 = encode_frame(&LogEntry::Del { uid, version: 2 }, &mut buf);
        assert_eq!(buf.len() as u64, n1 + n2);
        let scan = scan_segment(&Bytes::from(buf));
        assert!(!scan.torn);
        assert_eq!(scan.entries.len(), 2);
        assert_eq!(scan.entries[0].1, n1);
        match &scan.entries[0].0 {
            LogEntry::Put { uid: u, record } => {
                assert_eq!(*u, uid);
                assert_eq!(record.bytes, vec![1, 2, 3]);
                assert_eq!(record.version, 1);
            }
            other => panic!("expected put, got {other:?}"),
        }
        assert_eq!(scan.entries[1].0, LogEntry::Del { uid, version: 2 });
    }

    #[test]
    fn torn_tail_is_detected_at_every_truncation_point() {
        let uid = Uid::fresh();
        let mut buf = Vec::new();
        let n1 = encode_frame(&put(uid, 1, &[1, 2, 3]), &mut buf) as usize;
        encode_frame(&put(uid, 2, &[4, 5, 6, 7]), &mut buf);
        for cut in 0..buf.len() {
            let scan = scan_segment(&Bytes::copy_from_slice(&buf[..cut]));
            let expect = if cut < n1 {
                0
            } else if cut < buf.len() {
                1
            } else {
                2
            };
            assert_eq!(scan.entries.len(), expect, "cut at {cut}");
            assert_eq!(scan.torn, scan.valid_len < cut as u64, "cut at {cut}");
        }
        // The untouched buffer is whole.
        let scan = scan_segment(&Bytes::from(buf));
        assert_eq!(scan.entries.len(), 2);
        assert!(!scan.torn);
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let uid = Uid::fresh();
        let mut buf = Vec::new();
        let n1 = encode_frame(&put(uid, 1, &[1; 16]), &mut buf) as usize;
        encode_frame(&put(uid, 2, &[2; 16]), &mut buf);
        // Flip one payload byte in the second frame.
        buf[n1 + FRAME_HEADER + 3] ^= 0xFF;
        let scan = scan_segment(&Bytes::from(buf));
        assert_eq!(scan.entries.len(), 1);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, n1 as u64);
    }

    #[test]
    fn absurd_length_field_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0; 64]);
        let scan = scan_segment(&Bytes::from(buf));
        assert!(scan.entries.is_empty());
        assert!(scan.torn);
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn segment_names_roundtrip_and_sort() {
        assert_eq!(segment_name(7), "seg-00000007.log");
        assert_eq!(parse_segment_name("seg-00000007.log"), Some(7));
        assert_eq!(parse_segment_name("seg-junk.log"), None);
        assert_eq!(parse_segment_name("other.log"), None);
        assert!(segment_name(9) < segment_name(10));
    }
}
