//! Cold-restart recovery: replaying the segment log into the index.
//!
//! `replay` lists every `seg-*.log` file, scans each one frame by frame
//! ([`log::scan_segment`]), and folds the entries into a fresh
//! [`IndexState`] under one rule: **a UID's frames are ordered by version,
//! not by place** — its highest-version `Put` is the checkpoint, the
//! `Append`s at the versions that follow it are its journal, cut at the
//! first version missing, and a tombstone kills every put it out-versions,
//! journal and all. The rule makes replay independent of segment *order*,
//! which is what lets compaction write old frames into new files safely;
//! segments are still visited in sequence order so the accounting is
//! deterministic.
//!
//! A torn tail — a crash mid-append left a partial or corrupt frame — is
//! truncated at the last valid frame: the valid prefix is rewritten in
//! place and synced, so the next append continues from a clean boundary.

use std::collections::HashMap;

use bytes::Bytes;
use eden_core::{HostFsHandle, Result, Uid};

use super::durable::{IndexEntry, IndexState, SegInfo};
use super::log::{self, LogEntry};

/// What `replay` recovered.
#[derive(Debug)]
pub(crate) struct Replayed {
    /// The rebuilt index, ready to take appends.
    pub(crate) index: IndexState,
    /// Segments whose torn tail was truncated.
    pub(crate) torn_segments: u64,
}

/// Replay every segment on `fs` (its root is the log directory).
pub(crate) fn replay(fs: &HostFsHandle) -> Result<Replayed> {
    let mut segments: Vec<u64> = fs
        .list()
        .iter()
        .filter_map(|name| log::parse_segment_name(name))
        .collect();
    segments.sort_unstable();

    let mut index = IndexState::default();
    let mut torn_segments = 0u64;
    // Candidates: `index.records` holds per UID its highest-version `Put`,
    // `appends` every `Append` by the version it extends to, with where its
    // frame sits.
    let mut appends: HashMap<(Uid, u64), (Bytes, (u64, u64))> = HashMap::new();

    for &seq in &segments {
        let name = log::segment_name(seq);
        let data = Bytes::from(fs.read(&name)?);
        let scan = log::scan_segment(&data);
        if scan.torn {
            // Truncate at the last valid frame: rewrite the prefix and
            // make the cut durable before anything appends after it.
            fs.write(&name, &data[..scan.valid_len as usize])?;
            // eden-lint: nonblocking(cold-start replay, before any pool worker exists)
            fs.sync(&name)?;
            torn_segments += 1;
        }
        index.segments.insert(
            seq,
            SegInfo {
                total_bytes: scan.valid_len,
                ..SegInfo::default()
            },
        );
        for (entry, frame) in scan.entries {
            match entry {
                LogEntry::Put { uid, record } => {
                    // `>=` so a byte-identical compacted duplicate in a
                    // later segment takes over the accounting.
                    let held = index.records.get(&uid);
                    if held.is_none_or(|b| record.version >= b.record.version) {
                        let entry = IndexEntry {
                            record,
                            at: (seq, frame),
                            journal_at: Vec::new(),
                        };
                        index.records.insert(uid, entry);
                    }
                }
                LogEntry::Append {
                    uid,
                    version,
                    entry,
                } => {
                    appends.insert((uid, version), (entry, (seq, frame)));
                }
                LogEntry::Del { uid, version } => {
                    let tomb = index.tombstones.entry(uid).or_insert(version);
                    if *tomb < version {
                        *tomb = version;
                    }
                }
            }
        }
    }

    // Tombstones kill what they out-version; a put past the tombstone's
    // version (a destroyed-then-recreated UID) survives it, and takes the
    // entries at the versions that follow its own.
    let IndexState {
        records,
        tombstones,
        segments: infos,
        ..
    } = &mut index;
    records.retain(|uid, entry| {
        if tombstones
            .get(uid)
            .is_some_and(|tomb| entry.record.version <= *tomb)
        {
            return false;
        }
        while let Some((bytes, at)) = appends.remove(&(*uid, entry.record.version + 1)) {
            entry.record.journal.push(bytes);
            entry.record.version += 1;
            entry.journal_at.push(at);
        }
        for (seg, bytes) in entry.frames() {
            infos.entry(seg).or_default().hold(bytes);
        }
        true
    });

    match segments.last() {
        Some(&last) => {
            let len = index.segments.get(&last).map_or(0, |info| info.total_bytes);
            index.next_seg = last + 1;
            index.activate(last, len);
        }
        None => {
            index.next_seg = 1;
            index.activate(0, 0);
        }
    }
    Ok(Replayed {
        index,
        torn_segments,
    })
}

#[cfg(test)]
mod tests {
    use super::super::durable::{DurableConfig, DurableLog};
    use super::super::{FsyncPolicy, StableBackend};
    use super::*;
    use eden_core::MemFs;

    fn cfg() -> DurableConfig {
        DurableConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 128,
            compact_garbage_bytes: 1 << 20,
            auto_compact: false,
        }
    }

    #[test]
    fn empty_fs_replays_to_an_empty_active_segment() {
        let fs = MemFs::new();
        let replayed = replay(&fs).unwrap();
        assert_eq!(replayed.index.active_seg, 0);
        assert_eq!(replayed.index.next_seg, 1);
        assert!(replayed.index.records.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_and_the_prefix_survives() {
        let fs = MemFs::new();
        let uid = Uid::fresh();
        {
            let log = DurableLog::open(std::sync::Arc::clone(&fs), cfg()).unwrap();
            log.store(uid, "T", Bytes::from(vec![1; 8])).unwrap();
            log.store(uid, "T", Bytes::from(vec![2; 8])).unwrap();
        }
        // Tear mid-way through the last frame of the newest segment.
        let seg = fs
            .list()
            .into_iter()
            .rfind(|n| log::parse_segment_name(n).is_some())
            .expect("a segment exists");
        let bytes = fs.read(&seg).unwrap();
        fs.write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let log = DurableLog::open(std::sync::Arc::clone(&fs), cfg()).unwrap();
        assert_eq!(log.torn_segments(), 1);
        // Version 2's frame was torn, so version 1 is the durable truth.
        let rec = log.load(uid).unwrap();
        assert_eq!(rec.bytes, vec![1; 8]);
        assert_eq!(rec.version, 1);
        // The tear was cut: a re-open sees a clean log.
        drop(log);
        let log = DurableLog::open(std::sync::Arc::clone(&fs), cfg()).unwrap();
        assert_eq!(log.torn_segments(), 0);
        assert_eq!(log.load(uid).unwrap().version, 1);
    }

    #[test]
    fn replay_is_segment_order_free_for_versions() {
        // Hand-build two segments where the NEWER version sits in the
        // LOWER-numbered file (as after a compaction rewrote seg 2's
        // record into seg 1's slot) — replay must keep version 2.
        let fs = MemFs::new();
        let uid = Uid::fresh();
        let rec = |v: u64, b: u8| super::super::PassiveRecord {
            type_name: "T".into(),
            bytes: Bytes::from(vec![b; 4]),
            journal: Vec::new(),
            version: v,
        };
        let mut low = Vec::new();
        log::encode_frame(
            &LogEntry::Put {
                uid,
                record: rec(2, 9),
            },
            &mut low,
        );
        let mut high = Vec::new();
        log::encode_frame(
            &LogEntry::Put {
                uid,
                record: rec(1, 5),
            },
            &mut high,
        );
        fs.write(&log::segment_name(1), &low).unwrap();
        fs.write(&log::segment_name(2), &high).unwrap();
        let replayed = replay(&fs).unwrap();
        let entry = replayed.index.records.get(&uid).expect("uid recovered");
        assert_eq!(entry.record.version, 2);
        assert_eq!(entry.record.bytes, vec![9; 4]);
    }

    #[test]
    fn tombstone_in_any_segment_kills_older_puts() {
        let fs = MemFs::new();
        let uid = Uid::fresh();
        let mut a = Vec::new();
        log::encode_frame(
            &LogEntry::Put {
                uid,
                record: super::super::PassiveRecord {
                    type_name: "T".into(),
                    bytes: Bytes::from(vec![1]),
                    journal: Vec::new(),
                    version: 1,
                },
            },
            &mut a,
        );
        let mut b = Vec::new();
        log::encode_frame(&LogEntry::Del { uid, version: 2 }, &mut b);
        fs.write(&log::segment_name(1), &a).unwrap();
        fs.write(&log::segment_name(2), &b).unwrap();
        let replayed = replay(&fs).unwrap();
        assert!(replayed.index.records.is_empty());
        assert_eq!(replayed.index.tombstones.get(&uid), Some(&2));
    }

    /// Write each of `segments` (numbered from 1) as the given frames.
    fn write_segments(fs: &HostFsHandle, segments: &[&[LogEntry]]) {
        for (i, entries) in segments.iter().enumerate() {
            let mut buf = Vec::new();
            for entry in *entries {
                log::encode_frame(entry, &mut buf);
            }
            fs.write(&log::segment_name(i as u64 + 1), &buf).unwrap();
        }
    }

    #[test]
    fn a_journal_is_ordered_by_version_wherever_its_frames_sit() {
        let fs = MemFs::new();
        let uid = Uid::fresh();
        let put = |version: u64| LogEntry::Put {
            uid,
            record: super::super::PassiveRecord {
                type_name: "T".into(),
                bytes: Bytes::from(vec![version as u8]),
                journal: Vec::new(),
                version,
            },
        };
        let append = |version: u64| LogEntry::Append {
            uid,
            version,
            entry: Bytes::from(vec![version as u8]),
        };
        // As compactions might leave them: the checkpoint (version 3) after
        // the entries that extend it, those out of order, beside what it
        // superseded (1, 2) and an entry past a missing version (7).
        write_segments(
            &fs,
            &[
                &[append(5), put(1)],
                &[append(7), append(4), append(2)],
                &[put(3)],
            ],
        );
        let replayed = replay(&fs).unwrap();
        let entry = replayed.index.records.get(&uid).expect("uid recovered");
        assert_eq!(entry.record.bytes, vec![3]);
        assert_eq!(entry.record.journal, [vec![4], vec![5]]);
        assert_eq!(entry.record.version, 5, "the next write is version 6");
        assert_eq!(entry.frames().map(|f| f.0).collect::<Vec<_>>(), [3, 2, 1]);
        let live: u64 = replayed
            .index
            .segments
            .values()
            .map(|s| s.live_frames)
            .sum();
        assert_eq!(live, 3, "what was superseded or cut off is dead");
    }

    #[test]
    fn tombstone_kills_a_checkpoint_and_its_journal() {
        let fs = MemFs::new();
        let uid = Uid::fresh();
        let record = super::super::PassiveRecord {
            type_name: "T".into(),
            bytes: Bytes::from(vec![1]),
            journal: Vec::new(),
            version: 1,
        };
        let entry = Bytes::from(vec![2]);
        write_segments(
            &fs,
            &[
                &[LogEntry::Del { uid, version: 3 }],
                &[
                    LogEntry::Put { uid, record },
                    LogEntry::Append {
                        uid,
                        version: 2,
                        entry,
                    },
                ],
            ],
        );
        let replayed = replay(&fs).unwrap();
        assert!(replayed.index.records.is_empty());
        assert!(replayed.index.segments.values().all(|s| s.live_frames == 0));
    }
}
