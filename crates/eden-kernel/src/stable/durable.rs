//! The log-structured durable backend.
//!
//! [`DurableLog`] keeps every live passive representation in an in-memory
//! index (load/contains are lock-and-look, same as [`MemBacked`]) and
//! makes each mutation durable by appending a CRC-framed record to the
//! active segment before the index is updated — checkpoint-before-reply
//! extends all the way to the filing system. Concurrent `store()` and
//! `append()` calls coalesce through the group committer (one append, at
//! most one fsync per batch; see [`committer`](super::committer)); a
//! background thread
//! compacts sealed segments once their garbage crosses a threshold (see
//! [`compact`](super::compact)); and `open` replays the segments back
//! into the index, truncating a torn tail (see [`replay`]).
//!
//! All I/O goes through [`HostFs`], so tests and loom models run the
//! identical code path over `MemFs` that production runs over `RealFs`.
//!
//! [`MemBacked`]: super::MemBacked
//! [`HostFs`]: eden_core::HostFs

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use bytes::Bytes;
use eden_core::{HostFsHandle, Result, Uid};
use parking_lot::{Condvar, Mutex};

use super::committer::{CommitQueue, FsyncPolicy};
use super::compact::CompactState;
use super::log::{self, LogEntry};
use super::{replay, PassiveRecord, StableBackend, StableStats};

/// Tuning for [`DurableLog`].
#[derive(Clone, Copy, Debug)]
pub struct DurableConfig {
    /// When the committer fsyncs the active segment.
    pub fsync: FsyncPolicy,
    /// Roll to a fresh segment once the active one exceeds this.
    pub segment_bytes: u64,
    /// Wake the background compactor once the dead bytes across sealed
    /// segments exceed this.
    pub compact_garbage_bytes: u64,
    /// Run the background compactor thread. Explicit
    /// [`StableBackend::compact`] calls work either way.
    pub auto_compact: bool,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 4 << 20,
            compact_garbage_bytes: 1 << 20,
            auto_compact: true,
        }
    }
}

impl DurableConfig {
    /// The default configuration with an explicit fsync policy.
    pub fn with_fsync(fsync: FsyncPolicy) -> Self {
        DurableConfig {
            fsync,
            ..DurableConfig::default()
        }
    }
}

/// Where one live record sits in the log.
#[derive(Clone, Debug)]
pub(crate) struct IndexEntry {
    /// The record itself (loads never touch the filing system).
    pub(crate) record: PassiveRecord,
    /// Its `Put` frame: the segment holding it and its byte length (for
    /// live-bytes accounting).
    pub(crate) at: (u64, u64),
    /// Likewise the `Append` frame of each entry of its journal, which sit
    /// at the versions that follow the `Put`'s.
    pub(crate) journal_at: Vec<(u64, u64)>,
}

impl IndexEntry {
    /// The version of the `Put` frame.
    pub(crate) fn base_version(&self) -> u64 {
        self.record.version - self.record.journal.len() as u64
    }

    /// Where each of its live frames sits, oldest first.
    pub(crate) fn frames(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        std::iter::once(self.at).chain(self.journal_at.iter().copied())
    }

    /// Where frame `i` sits, to be re-pointed.
    pub(crate) fn frame_mut(&mut self, i: usize) -> Option<&mut (u64, u64)> {
        match i.checked_sub(1) {
            Some(j) => self.journal_at.get_mut(j),
            None => Some(&mut self.at),
        }
    }

    /// The log entry frame `i` holds, as compaction rewrites it.
    pub(crate) fn frame(&self, uid: Uid, i: usize) -> LogEntry {
        let version = self.base_version() + i as u64;
        match i.checked_sub(1) {
            Some(j) => LogEntry::Append {
                uid,
                version,
                entry: self.record.journal[j].clone(),
            },
            None => LogEntry::Put {
                uid,
                record: PassiveRecord {
                    type_name: self.record.type_name.clone(),
                    bytes: self.record.bytes.clone(),
                    journal: Vec::new(),
                    version,
                },
            },
        }
    }
}

/// Per-segment accounting.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SegInfo {
    /// Bytes of frames that are still live.
    pub(crate) live_bytes: u64,
    /// Bytes of valid frames in the file.
    pub(crate) total_bytes: u64,
    /// Number of live frames here.
    pub(crate) live_frames: u64,
}

/// The mutable index: UID → latest record, plus segment bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct IndexState {
    /// Live records.
    pub(crate) records: HashMap<Uid, IndexEntry>,
    /// Destroyed UIDs and their tombstone versions (a later `Put` must
    /// out-version the tombstone to win on replay).
    pub(crate) tombstones: HashMap<Uid, u64>,
    /// Accounting per segment file present on the filing system.
    pub(crate) segments: BTreeMap<u64, SegInfo>,
    /// The segment currently taking appends.
    pub(crate) active_seg: u64,
    /// Its file name, shared so that a batch names it without formatting.
    pub(crate) active_name: std::sync::Arc<str>,
    /// Valid bytes in the active segment.
    pub(crate) active_len: u64,
    /// Next unused segment sequence number (rolls and compaction outputs
    /// both draw from here, so names never collide).
    pub(crate) next_seg: u64,
}

impl SegInfo {
    /// Count a frame of `bytes` live here.
    pub(crate) fn hold(&mut self, bytes: u64) {
        self.live_bytes += bytes;
        self.live_frames += 1;
    }
}

impl IndexState {
    /// Make `seg`, holding `len` valid bytes, the segment taking appends.
    pub(crate) fn activate(&mut self, seg: u64, len: u64) {
        self.active_seg = seg;
        self.active_len = len;
        self.active_name = log::segment_name(seg).into();
        self.segments.entry(seg).or_default();
    }

    /// Seal the active segment: appends go to a fresh one from here.
    pub(crate) fn roll(&mut self) {
        let fresh = self.next_seg;
        self.next_seg += 1;
        self.activate(fresh, 0);
    }

    /// Forget `uid`'s record, if it has one: its frames are dead where they
    /// sit.
    pub(crate) fn release(&mut self, uid: Uid) {
        let Some(entry) = self.records.remove(&uid) else {
            return;
        };
        for (seg, bytes) in entry.frames() {
            if let Some(info) = self.segments.get_mut(&seg) {
                info.live_bytes = info.live_bytes.saturating_sub(bytes);
                info.live_frames = info.live_frames.saturating_sub(1);
            }
        }
    }
}

/// Everything the committer, compactor and backend methods share.
pub(crate) struct LogInner {
    /// The filing system under the log (its root is the log directory).
    pub(crate) fs: HostFsHandle,
    /// Tuning knobs.
    pub(crate) cfg: DurableConfig,
    /// Group-commit queue. Lock class `stable-committer`.
    pub(crate) commit: Mutex<CommitQueue>,
    /// Signals ticket completion (and leader retirement) to waiters.
    pub(crate) commit_done: Condvar,
    /// The record index. Lock class `stable-index`.
    pub(crate) index: Mutex<IndexState>,
    /// Compactor wake/shutdown flags. Lock class `stable-compactor`.
    pub(crate) compact_mx: Mutex<CompactState>,
    /// Wakes the compactor thread.
    pub(crate) compact_cv: Condvar,
    /// fsync calls issued (committer, compactor, flush).
    pub(crate) fsyncs: AtomicU64,
    /// Completed compaction passes.
    pub(crate) compactions: AtomicU64,
    /// Committed batches since the last fsync (for `FsyncPolicy::EveryN`).
    pub(crate) batches_since_sync: AtomicU32,
}

impl LogInner {
    /// Count one fsync. Only a sync of the active segment (`active`)
    /// restarts the `EveryN` count: the compactor's sync of its own output
    /// covers none of the batches since the last one.
    pub(crate) fn count_fsync(&self, active: bool) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if active {
            self.batches_since_sync.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for LogInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogInner").field("cfg", &self.cfg).finish()
    }
}

/// The log-structured durable [`StableBackend`].
pub struct DurableLog {
    inner: std::sync::Arc<LogInner>,
    /// The background compactor, joined on drop.
    compactor: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Segments whose torn tail `open` truncated (diagnostics).
    torn_segments: u64,
}

impl DurableLog {
    /// Open (or create) the log on `fs`, replaying existing segments.
    ///
    /// The filing system's root *is* the log directory: every
    /// `seg-*.log` file in it is replayed, newest version of each UID
    /// wins, tombstones kill what they out-version, and a torn tail is
    /// truncated at the last valid frame.
    pub fn open(fs: HostFsHandle, cfg: DurableConfig) -> Result<DurableLog> {
        let replayed = replay::replay(&fs)?;
        let inner = std::sync::Arc::new(LogInner {
            fs,
            cfg,
            commit: Mutex::new(CommitQueue::default()),
            commit_done: Condvar::new(),
            index: Mutex::new(replayed.index),
            compact_mx: Mutex::new(CompactState::default()),
            compact_cv: Condvar::new(),
            fsyncs: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            batches_since_sync: AtomicU32::new(0),
        });
        let compactor = if cfg.auto_compact {
            let worker = std::sync::Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("eden-stable-compact".into())
                    .spawn(move || super::compact::compactor_loop(&worker))
                    .expect("spawn compactor"),
            )
        } else {
            None
        };
        Ok(DurableLog {
            inner,
            compactor: Mutex::new(compactor),
            torn_segments: replayed.torn_segments,
        })
    }

    /// Segments whose torn tail was truncated when this backend was
    /// opened (0 after a clean shutdown).
    pub fn torn_segments(&self) -> u64 {
        self.torn_segments
    }
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("cfg", &self.inner.cfg)
            .finish()
    }
}

impl Drop for DurableLog {
    fn drop(&mut self) {
        let handle = {
            let mut st = self.inner.compact_mx.lock();
            st.shutdown = true;
            self.inner.compact_cv.notify_all();
            self.compactor.lock().take()
        };
        if let Some(handle) = handle {
            // eden-lint: nonblocking(teardown: the compactor was told to shut down above)
            let _ = handle.join();
        }
        // Lazy fsync policies owe the tail a final sync; MemFs treats
        // this as a no-op, and a dead filing system can't be helped.
        let _ = self.flush();
    }
}

impl StableBackend for DurableLog {
    fn store(&self, uid: Uid, type_name: &str, bytes: Bytes) -> Result<()> {
        self.inner.submit(LogEntry::Put {
            uid,
            record: PassiveRecord {
                type_name: type_name.to_owned(),
                bytes,
                journal: Vec::new(),
                version: 0,
            },
        })
    }

    fn append(&self, uid: Uid, entry: Bytes) -> Result<()> {
        // An entry extends what is stored. (One that loses a race with the
        // `remove` of its own UID lands dead: it follows no `Put`.)
        if !self.contains(uid) {
            return Err(eden_core::EdenError::NoSuchEject(uid));
        }
        self.inner.submit(LogEntry::Append {
            uid,
            version: 0,
            entry,
        })
    }

    fn load(&self, uid: Uid) -> Result<PassiveRecord> {
        self.inner
            .index
            .lock()
            .records
            .get(&uid)
            .map(|e| e.record.clone())
            .ok_or(eden_core::EdenError::NoSuchEject(uid))
    }

    fn contains(&self, uid: Uid) -> bool {
        self.inner.index.lock().records.contains_key(&uid)
    }

    fn remove(&self, uid: Uid) -> Result<()> {
        self.inner.submit(LogEntry::Del { uid, version: 0 })
    }

    fn iter(&self) -> Vec<(Uid, PassiveRecord)> {
        self.inner
            .index
            .lock()
            .records
            .iter()
            .map(|(u, e)| (*u, e.record.clone()))
            .collect()
    }

    fn uids(&self) -> Vec<Uid> {
        self.inner.index.lock().records.keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.inner.index.lock().records.len()
    }

    fn total_bytes(&self) -> usize {
        self.inner
            .index
            .lock()
            .records
            .values()
            .map(|e| e.record.stored_bytes())
            .sum()
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn compact(&self) -> Result<()> {
        self.inner.compact_once(true).map(|_| ())
    }

    fn stats(&self) -> StableStats {
        let (records, bytes, segments_live, log_bytes) = {
            let idx = self.inner.index.lock();
            (
                idx.records.len() as u64,
                idx.records
                    .values()
                    .map(|e| e.record.stored_bytes() as u64)
                    .sum(),
                idx.segments.len() as u64,
                idx.segments.values().map(|s| s.total_bytes).sum(),
            )
        };
        StableStats {
            records,
            bytes,
            segments_live,
            log_bytes,
            compactions: self.inner.compactions.load(Ordering::Relaxed),
            fsyncs: self.inner.fsyncs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_core::MemFs;

    fn store_on(fs: &HostFsHandle, fsync: FsyncPolicy) -> DurableLog {
        DurableLog::open(
            std::sync::Arc::clone(fs),
            DurableConfig {
                fsync,
                segment_bytes: 256,
                compact_garbage_bytes: 1 << 20,
                auto_compact: false,
            },
        )
        .expect("open durable store")
    }

    #[test]
    fn durable_roundtrip_and_versions() {
        let fs = MemFs::new();
        let s = store_on(&fs, FsyncPolicy::Always);
        let uid = Uid::fresh();
        s.store(uid, "File", Bytes::from(vec![1, 2, 3])).unwrap();
        s.store(uid, "File", Bytes::from(vec![4])).unwrap();
        let rec = s.load(uid).unwrap();
        assert_eq!(rec.bytes, vec![4]);
        assert_eq!(rec.version, 2);
        assert_eq!(s.len(), 1);
        assert!(s.stats().log_bytes > 0);
    }

    #[test]
    fn survives_reopen_on_the_same_fs() {
        let fs = MemFs::new();
        let a = Uid::fresh();
        let b = Uid::fresh();
        {
            let s = store_on(&fs, FsyncPolicy::EveryN(8));
            s.store(a, "Counter", Bytes::from(vec![1])).unwrap();
            s.store(b, "Counter", Bytes::from(vec![2])).unwrap();
            s.store(a, "Counter", Bytes::from(vec![3])).unwrap();
            s.remove(b).unwrap();
        }
        let s = store_on(&fs, FsyncPolicy::Always);
        assert_eq!(s.len(), 1);
        let rec = s.load(a).unwrap();
        assert_eq!(rec.bytes, vec![3]);
        assert_eq!(rec.version, 2);
        assert!(!s.contains(b), "tombstone must survive reopen");
    }

    #[test]
    fn removed_then_restored_uid_outversions_its_tombstone() {
        let fs = MemFs::new();
        let uid = Uid::fresh();
        {
            let s = store_on(&fs, FsyncPolicy::Always);
            s.store(uid, "X", Bytes::from(vec![1])).unwrap();
            s.remove(uid).unwrap();
            s.store(uid, "X", Bytes::from(vec![2])).unwrap();
        }
        let s = store_on(&fs, FsyncPolicy::Always);
        assert_eq!(s.load(uid).unwrap().bytes, vec![2]);
    }

    #[test]
    fn segments_roll_and_compaction_reclaims_overwrites() {
        let fs = MemFs::new();
        let s = store_on(&fs, FsyncPolicy::Always);
        let uid = Uid::fresh();
        for i in 0..64u8 {
            s.store(uid, "Hot", Bytes::from(vec![i; 32])).unwrap();
        }
        let before = s.stats();
        assert!(before.segments_live > 1, "rolls happened: {before:?}");
        s.compact().unwrap();
        let after = s.stats();
        assert_eq!(after.records, 1);
        assert!(
            after.log_bytes < before.log_bytes / 4,
            "compaction reclaims overwritten frames: {before:?} -> {after:?}"
        );
        assert!(after.compactions >= 1);
        // The surviving state is intact and still durable across reopen.
        assert_eq!(s.load(uid).unwrap().bytes, vec![63; 32]);
        drop(s);
        let s = store_on(&fs, FsyncPolicy::Always);
        assert_eq!(s.load(uid).unwrap().bytes, vec![63; 32]);
        assert_eq!(s.load(uid).unwrap().version, 64);
    }

    #[test]
    fn fsync_policies_count_differently() {
        let fs = MemFs::new();
        let s = store_on(&fs, FsyncPolicy::Always);
        let uid = Uid::fresh();
        for _ in 0..10 {
            s.store(uid, "X", Bytes::from(vec![0])).unwrap();
        }
        let always = s.stats().fsyncs;
        assert!(always >= 10, "Always syncs every batch: {always}");

        let fs2 = MemFs::new();
        let s2 = store_on(&fs2, FsyncPolicy::EveryN(4));
        for _ in 0..10 {
            s2.store(uid, "X", Bytes::from(vec![0])).unwrap();
        }
        let lazy = s2.stats().fsyncs;
        assert!(lazy < always, "EveryN(4) syncs less: {lazy} vs {always}");
    }

    /// A filing system that delegates to a [`MemFs`] and records, in
    /// order, every append (`'a'`) and sync (`'s'`) with its path. Once
    /// `fail_append` is set, the next `append` fails and writes nothing.
    struct TestFs {
        inner: HostFsHandle,
        fail_append: std::sync::atomic::AtomicBool,
        ops: parking_lot::Mutex<Vec<(char, String)>>,
    }

    impl eden_core::HostFs for TestFs {
        fn read(&self, path: &str) -> Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write(&self, path: &str, bytes: &[u8]) -> Result<()> {
            self.inner.write(path, bytes)
        }
        fn append(&self, path: &str, bytes: &[u8]) -> Result<u64> {
            if self.fail_append.swap(false, Ordering::SeqCst) {
                return Err(eden_core::EdenError::HostFs(format!(
                    "append {path}: disk full"
                )));
            }
            self.ops.lock().push(('a', path.to_owned()));
            self.inner.append(path, bytes)
        }
        fn sync(&self, path: &str) -> Result<()> {
            self.ops.lock().push(('s', path.to_owned()));
            self.inner.sync(path)
        }
        fn rename(&self, from: &str, to: &str) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn exists(&self, path: &str) -> bool {
            self.inner.exists(path)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
        fn remove(&self, path: &str) -> Result<()> {
            self.inner.remove(path)
        }
    }

    impl TestFs {
        fn ops(&self) -> Vec<(char, String)> {
            self.ops.lock().clone()
        }
    }

    fn test_fs() -> (std::sync::Arc<TestFs>, HostFsHandle) {
        let test = std::sync::Arc::new(TestFs {
            inner: MemFs::new(),
            fail_append: std::sync::atomic::AtomicBool::new(false),
            ops: parking_lot::Mutex::default(),
        });
        let fs = std::sync::Arc::clone(&test) as HostFsHandle;
        (test, fs)
    }

    fn active_segment(log: &DurableLog) -> String {
        log.inner.index.lock().active_name.to_string()
    }

    /// Under `EveryN(4)`, a compaction between batches syncs only its own
    /// output: the active segment's 4th batch since its last sync still
    /// syncs it.
    #[test]
    fn a_compaction_sync_does_not_restart_the_every_n_count() {
        let (rec, fs) = test_fs();
        let config = DurableConfig {
            fsync: FsyncPolicy::EveryN(4),
            segment_bytes: 512,
            auto_compact: false,
            ..DurableConfig::default()
        };
        let s = DurableLog::open(fs, config).unwrap();
        let (x, y) = (Uid::fresh(), Uid::fresh());
        // A small live frame, then a large one that fills and seals the
        // segment; overwriting the large one leaves that segment half dead.
        s.store(x, "X", Bytes::from(vec![1; 8])).unwrap();
        s.store(y, "Y", Bytes::from(vec![0; 500])).unwrap();
        s.store(y, "Y", Bytes::from(vec![1; 8])).unwrap();
        s.inner.flush().unwrap();
        let active = active_segment(&s);
        let flushed = rec.ops().len();
        let syncs_of_active = |rec: &TestFs| {
            let ops = rec.ops().split_off(flushed);
            ops.iter()
                .filter(|op| **op == ('s', active.clone()))
                .count()
        };
        for i in 2..=4u8 {
            s.store(y, "Y", Bytes::from(vec![i; 8])).unwrap();
        }
        assert_eq!(syncs_of_active(&rec), 0, "three batches, no sync yet");
        let before = rec.ops().len();
        assert!(s.inner.compact_once(false).unwrap() > 0);
        let ops = rec.ops().split_off(before);
        assert!(
            matches!(&ops[..], [('s', out)] if *out != active),
            "the compaction synced its own output only: {ops:?}"
        );
        s.store(y, "Y", Bytes::from(vec![5; 8])).unwrap();
        assert_eq!(active_segment(&s), active);
        assert_eq!(syncs_of_active(&rec), 1, "the 4th batch syncs");
    }

    /// Under `EveryN(4)`, a batch that fills its segment syncs it as it
    /// seals it: every segment appended to is synced after its last append,
    /// before the log is flushed or dropped.
    #[test]
    fn a_segment_sealed_by_a_roll_is_synced() {
        let (rec, fs) = test_fs();
        let s = store_on(&fs, FsyncPolicy::EveryN(4));
        let uid = Uid::fresh();
        for i in 0..6u8 {
            s.store(uid, "Big", Bytes::from(vec![i; 300])).unwrap();
        }
        let ops = rec.ops();
        let appended: std::collections::BTreeSet<&String> = ops
            .iter()
            .filter(|op| op.0 == 'a')
            .map(|op| &op.1)
            .collect();
        assert_eq!(appended.len(), 6, "each batch rolled: {ops:?}");
        for path in appended {
            let last_append = ops.iter().rposition(|op| *op == ('a', path.clone()));
            let last_sync = ops.iter().rposition(|op| *op == ('s', path.clone()));
            assert!(last_sync > last_append, "{path} left unsynced: {ops:?}");
        }
    }

    /// Under `EveryN(4)`, an append the filing system refuses seals its
    /// segment, and the batches already in it are synced as it is sealed.
    #[test]
    fn a_segment_sealed_by_a_failed_append_is_synced() {
        let (test, fs) = test_fs();
        let s = store_on(&fs, FsyncPolicy::EveryN(4));
        let uid = Uid::fresh();
        s.store(uid, "X", Bytes::from(vec![1])).unwrap();
        s.store(uid, "X", Bytes::from(vec![2])).unwrap();
        let sealed = active_segment(&s);
        test.fail_append.store(true, Ordering::SeqCst);
        assert!(s.store(uid, "X", Bytes::from(vec![3])).is_err());
        assert_ne!(active_segment(&s), sealed);
        assert_eq!(test.ops().last(), Some(&('s', sealed)));
    }

    #[test]
    fn concurrent_stores_coalesce_and_all_survive() {
        let fs = MemFs::new();
        let s = store_on(&fs, FsyncPolicy::Always);
        let uids: Vec<Uid> = (0..64).map(|_| Uid::fresh()).collect();
        std::thread::scope(|scope| {
            for chunk in uids.chunks(16) {
                let s = &s;
                scope.spawn(move || {
                    for &uid in chunk {
                        s.store(uid, "W", Bytes::from(vec![7; 24])).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.len(), 64);
        drop(s);
        let s = store_on(&fs, FsyncPolicy::Always);
        assert_eq!(s.len(), 64, "all 64 survive a reopen");
        for uid in uids {
            assert_eq!(s.load(uid).unwrap().bytes, vec![7; 24]);
        }
    }

    #[test]
    fn concurrent_checkpoints_and_entries_of_different_ejects_keep_each_journal_in_order() {
        // Four writers, one Eject each, through one group commit: a batch
        // mixes `Put`s and `Append`s of different UIDs in whatever order the
        // writers arrived, and each UID's versions still run in its own.
        let fs = MemFs::new();
        let s = store_on(&fs, FsyncPolicy::Always);
        let uids: Vec<Uid> = (0..4).map(|_| Uid::fresh()).collect();
        std::thread::scope(|scope| {
            for (w, &uid) in uids.iter().enumerate() {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..40u8 {
                        match i % 10 {
                            0 => s.store(uid, "W", Bytes::from(vec![w as u8, i])).unwrap(),
                            _ => s.append(uid, Bytes::from(vec![w as u8, i])).unwrap(),
                        }
                    }
                });
            }
        });
        let check = |s: &DurableLog| {
            for (w, &uid) in uids.iter().enumerate() {
                let rec = s.load(uid).unwrap();
                assert_eq!((rec.bytes.to_vec(), rec.version), (vec![w as u8, 30], 40));
                let journal: Vec<Vec<u8>> = rec.journal.iter().map(|e| e.to_vec()).collect();
                let want: Vec<Vec<u8>> = (31..40).map(|i| vec![w as u8, i]).collect();
                assert_eq!(journal, want);
            }
        };
        check(&s);
        drop(s);
        check(&store_on(&fs, FsyncPolicy::Always));
    }

    #[test]
    fn background_compaction_moves_the_live_frames_of_a_journal_one_by_one() {
        // A cold Eject's checkpoint and entries, each in a segment a hot one
        // then fills with overwrites: the half-dead rule takes some of those
        // segments and not others, so part of the journal moves and part
        // stays where it was.
        let fs = MemFs::new();
        let log = DurableLog::open(
            std::sync::Arc::clone(&fs),
            DurableConfig {
                segment_bytes: 512,
                auto_compact: false,
                ..DurableConfig::default()
            },
        )
        .unwrap();
        let (cold, hot) = (Uid::fresh(), Uid::fresh());
        log.store(cold, "Cold", Bytes::from(vec![0; 200])).unwrap();
        for i in 1..=6u8 {
            // Alternate how dead the cold frame's segment ends up.
            let fill = if i % 2 == 0 { 40 } else { 400 };
            log.store(hot, "Hot", Bytes::from(vec![i; fill])).unwrap();
            log.append(cold, Bytes::from(vec![i; 200])).unwrap();
        }
        let before = log.stats();
        let reclaimed = log.inner.compact_once(false).unwrap();
        assert!(reclaimed > 0 && log.stats().segments_live < before.segments_live);
        let check = |log: &DurableLog| {
            let rec = log.load(cold).unwrap();
            assert_eq!((rec.bytes.to_vec(), rec.version), (vec![0; 200], 7));
            let journal: Vec<u8> = rec.journal.iter().map(|e| e[0]).collect();
            assert_eq!(journal, [1, 2, 3, 4, 5, 6]);
            assert_eq!(log.load(hot).unwrap().bytes[0], 6);
        };
        check(&log);
        let homes = |log: &DurableLog| {
            let idx = log.inner.index.lock();
            idx.records[&cold]
                .frames()
                .map(|f| f.0)
                .collect::<Vec<u64>>()
        };
        let moved = homes(&log);
        assert!(
            moved.iter().any(|seg| *seg >= before.segments_live)
                && moved.iter().any(|seg| *seg < before.segments_live),
            "some frames moved and some stayed: {moved:?}"
        );
        // A later write still lands after what compaction placed.
        log.append(cold, Bytes::from(vec![7; 8])).unwrap();
        drop(log);
        let log = DurableLog::open(fs, DurableConfig::default()).unwrap();
        assert_eq!(log.load(cold).unwrap().journal.len(), 7);
        assert_eq!(log.load(cold).unwrap().version, 8);
    }

    /// A write the filing system refused is not reported durable, whichever
    /// form it took: the caller gets the error, `load` still answers what
    /// was stored before it, and the next write starts a segment of its own.
    #[test]
    fn failed_write_is_not_reported_durable() {
        let (failing, fs) = test_fs();
        let s = store_on(&fs, FsyncPolicy::Always);
        let uid = Uid::fresh();
        s.store(uid, "Counter", Bytes::from(vec![1])).unwrap();
        s.append(uid, Bytes::from(vec![2])).unwrap();
        let held = |s: &DurableLog| {
            let rec = s.load(uid).unwrap();
            let journal: Vec<u8> = rec.journal.iter().map(|e| e[0]).collect();
            (rec.bytes[0], journal, rec.version)
        };
        let mut journal = vec![2];
        for refused_store in [true, false] {
            let segments = s.stats().segments_live;
            failing.fail_append.store(true, Ordering::SeqCst);
            let refused = match refused_store {
                true => s.store(uid, "Counter", Bytes::from(vec![9])),
                false => s.append(uid, Bytes::from(vec![9])),
            };
            assert!(matches!(refused, Err(eden_core::EdenError::HostFs(_))));
            assert_eq!(held(&s), (1, journal.clone(), 1 + journal.len() as u64));
            assert_eq!(s.stats().segments_live, segments + 1, "sealed");
            // The version the refused write would have had is the next one's.
            journal.push(journal.len() as u8 + 2);
            s.append(uid, Bytes::from(vec![*journal.last().unwrap()]))
                .unwrap();
            assert_eq!(held(&s), (1, journal.clone(), 1 + journal.len() as u64));
        }
        // A never-checkpointed Eject whose first store fails stays absent.
        let fresh = Uid::fresh();
        failing.fail_append.store(true, Ordering::SeqCst);
        assert!(s.store(fresh, "Counter", Bytes::from(vec![3])).is_err());
        assert!(!s.contains(fresh));
        drop(s);
        let s = store_on(&fs, FsyncPolicy::Always);
        assert_eq!(held(&s), (1, vec![2, 3, 4], 4));
        assert!(!s.contains(fresh));
    }
}
