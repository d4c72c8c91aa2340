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
//! into the index, truncating a torn tail (see [`replay`](super::replay)).
//!
//! All I/O goes through [`HostFs`], so tests and loom models run the
//! identical code path over `MemFs` that production runs over `RealFs`.
//!
//! [`MemBacked`]: super::MemBacked
//! [`HostFs`]: eden_core::HostFs

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use eden_core::{HostFsHandle, Result, Uid};
use parking_lot::{Condvar, Mutex};

use super::committer::{CommitQueue, FlushState, FsyncPolicy, Op};
use super::compact::CompactState;
use super::log::LogEntry;
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
    pub record: PassiveRecord,
    /// Its `Put` frame: the segment holding it and its byte length (for
    /// live-bytes accounting).
    pub at: (u64, u64),
    /// Likewise the `Append` frame of each entry of its journal, which sit
    /// at the versions that follow the `Put`'s.
    pub journal_at: Vec<(u64, u64)>,
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
    pub live_bytes: u64,
    /// Bytes of valid frames in the file.
    pub total_bytes: u64,
    /// Number of live frames here.
    pub live_frames: u64,
}

/// The mutable index: UID → latest record, plus segment bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct IndexState {
    /// Live records.
    pub records: HashMap<Uid, IndexEntry>,
    /// Destroyed UIDs and their tombstone versions (a later `Put` must
    /// out-version the tombstone to win on replay).
    pub tombstones: HashMap<Uid, u64>,
    /// Accounting per segment file present on the filing system.
    pub segments: BTreeMap<u64, SegInfo>,
    /// The segment currently taking appends.
    pub active_seg: u64,
    /// Valid bytes in the active segment.
    pub active_len: u64,
    /// Next unused segment sequence number (rolls and compaction outputs
    /// both draw from here, so names never collide).
    pub next_seg: u64,
}

impl SegInfo {
    /// Count a frame of `bytes` live here.
    pub(crate) fn hold(&mut self, bytes: u64) {
        self.live_bytes += bytes;
        self.live_frames += 1;
    }
}

impl IndexState {
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
    pub fs: HostFsHandle,
    /// Tuning knobs.
    pub cfg: DurableConfig,
    /// Group-commit queue. Lock class `stable-committer`.
    pub commit: Mutex<CommitQueue>,
    /// Signals ticket completion (and leader retirement) to waiters.
    pub commit_done: Condvar,
    /// The record index. Lock class `stable-index`.
    pub index: Mutex<IndexState>,
    /// Compactor wake/shutdown flags. Lock class `stable-compactor`.
    pub compact_mx: Mutex<CompactState>,
    /// Wakes the compactor thread.
    pub compact_cv: Condvar,
    /// Interval-flusher shutdown flag. Lock class `stable-flusher`.
    pub flush_mx: Mutex<FlushState>,
    /// Wakes (shuts down) the interval-flusher thread.
    pub flush_cv: Condvar,
    /// fsync calls issued (committer, compactor, flush).
    pub fsyncs: AtomicU64,
    /// Completed compaction passes.
    pub compactions: AtomicU64,
    /// Committed batches since the last fsync (for `FsyncPolicy::EveryN`).
    pub batches_since_sync: AtomicU32,
    /// Microseconds from `created` to the last fsync (for
    /// `FsyncPolicy::Interval`).
    pub last_sync_micros: AtomicU64,
    /// Epoch for `last_sync_micros`.
    pub created: Instant,
}

impl LogInner {
    pub(crate) fn count_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.batches_since_sync.store(0, Ordering::Relaxed);
        self.last_sync_micros
            .store(self.created.elapsed().as_micros() as u64, Ordering::Relaxed);
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
    /// The interval-policy flush timer, joined on drop (present only
    /// under [`FsyncPolicy::Interval`]).
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Frames replayed at `open` (diagnostics).
    replayed_frames: u64,
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
            flush_mx: Mutex::new(FlushState::default()),
            flush_cv: Condvar::new(),
            fsyncs: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            batches_since_sync: AtomicU32::new(0),
            last_sync_micros: AtomicU64::new(0),
            created: Instant::now(),
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
        let flusher = if matches!(cfg.fsync, FsyncPolicy::Interval(_)) {
            let worker = std::sync::Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("eden-stable-flush".into())
                    .spawn(move || super::committer::flusher_loop(&worker))
                    .expect("spawn flusher"),
            )
        } else {
            None
        };
        Ok(DurableLog {
            inner,
            compactor: Mutex::new(compactor),
            flusher: Mutex::new(flusher),
            replayed_frames: replayed.frames,
            torn_segments: replayed.torn_segments,
        })
    }

    /// Frames replayed from the log when this backend was opened.
    pub fn replayed_frames(&self) -> u64 {
        self.replayed_frames
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
        let handle = {
            let mut st = self.inner.flush_mx.lock();
            st.shutdown = true;
            self.inner.flush_cv.notify_all();
            self.flusher.lock().take()
        };
        if let Some(handle) = handle {
            // eden-lint: nonblocking(teardown: the flusher was told to shut down above)
            let _ = handle.join();
        }
        // Lazy fsync policies owe the tail a final sync; MemFs treats
        // this as a no-op, and a dead filing system can't be helped.
        let _ = self.flush();
    }
}

impl StableBackend for DurableLog {
    fn store(&self, uid: Uid, type_name: &str, bytes: Bytes) -> Result<()> {
        self.inner.submit(Op::Put {
            uid,
            type_name: type_name.to_owned(),
            bytes,
        })
    }

    fn append(&self, uid: Uid, entry: Bytes) -> Result<()> {
        // An entry extends what is stored. (One that loses a race with the
        // `remove` of its own UID lands dead: it follows no `Put`.)
        if !self.contains(uid) {
            return Err(eden_core::EdenError::NoSuchEject(uid));
        }
        self.inner.submit(Op::Append { uid, entry })
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
        self.inner.submit(Op::Del { uid })
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
    use super::super::StableStore;
    use super::*;
    use eden_core::MemFs;
    use std::time::Duration;

    fn store_on(fs: &HostFsHandle, fsync: FsyncPolicy) -> StableStore {
        StableStore::durable_on(
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
            s.remove(b);
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
            s.remove(uid);
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

    /// A crash-faithful filing system: delegates to a [`MemFs`], but
    /// remembers each file's length at its last `sync`. `crash_view()`
    /// returns what a machine that lost power *now* would see on reboot —
    /// every file truncated back to its synced prefix. And a faulty one:
    /// once `fail_append` is set, the next `append` fails and writes nothing.
    struct SyncTrackingFs {
        inner: HostFsHandle,
        synced: Mutex<std::collections::HashMap<String, usize>>,
        fail_append: std::sync::atomic::AtomicBool,
    }

    impl SyncTrackingFs {
        fn new() -> std::sync::Arc<SyncTrackingFs> {
            std::sync::Arc::new(SyncTrackingFs {
                inner: MemFs::new(),
                synced: Mutex::new(std::collections::HashMap::new()),
                fail_append: std::sync::atomic::AtomicBool::new(false),
            })
        }

        fn crash_view(&self) -> HostFsHandle {
            let synced = self.synced.lock();
            let survivors = MemFs::new();
            for path in self.inner.list() {
                let stable = synced.get(&path).copied().unwrap_or(0);
                if stable == 0 {
                    continue;
                }
                let mut bytes = self.inner.read(&path).unwrap();
                bytes.truncate(stable);
                survivors.write(&path, &bytes).unwrap();
            }
            survivors
        }
    }

    impl eden_core::HostFs for SyncTrackingFs {
        fn read(&self, path: &str) -> Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write(&self, path: &str, bytes: &[u8]) -> Result<()> {
            self.inner.write(path, bytes)
        }
        fn append(&self, path: &str, bytes: &[u8]) -> Result<u64> {
            if self.fail_append.swap(false, Ordering::SeqCst) {
                return Err(eden_core::EdenError::HostFs(format!("append {path}: disk full")));
            }
            self.inner.append(path, bytes)
        }
        fn sync(&self, path: &str) -> Result<()> {
            self.inner.sync(path)?;
            let len = self.inner.read(path).map(|b| b.len()).unwrap_or(0);
            self.synced.lock().insert(path.to_owned(), len);
            Ok(())
        }
        fn rename(&self, from: &str, to: &str) -> Result<()> {
            self.inner.rename(from, to)?;
            let mut synced = self.synced.lock();
            if let Some(len) = synced.remove(from) {
                synced.insert(to.to_owned(), len);
            }
            Ok(())
        }
        fn exists(&self, path: &str) -> bool {
            self.inner.exists(path)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
        fn remove(&self, path: &str) -> Result<()> {
            self.synced.lock().remove(path);
            self.inner.remove(path)
        }
    }

    /// The Interval idle-tail bug: `due_for_sync` is only consulted inside
    /// `commit_batch`, so a lone store followed by idleness never got its
    /// fsync — a crash after two full intervals still lost the checkpoint.
    /// The flush timer must sync the idle tail on its own.
    #[test]
    fn interval_policy_syncs_an_idle_tail() {
        let d = Duration::from_millis(40);
        let tracking = SyncTrackingFs::new();
        let fs: HostFsHandle = std::sync::Arc::clone(&tracking) as HostFsHandle;
        let s = StableStore::durable_on(
            fs,
            DurableConfig {
                fsync: FsyncPolicy::Interval(d),
                segment_bytes: 1 << 20,
                compact_garbage_bytes: 1 << 20,
                auto_compact: false,
            },
        )
        .expect("open durable store");
        let uid = Uid::fresh();
        // The lone store: appends, and (interval not yet elapsed) does
        // not sync.
        s.store(uid, "Lonely", Bytes::from(vec![9; 16])).unwrap();
        // Go idle for two full intervals; the flush timer must fire.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while s.stats().fsyncs == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "flusher never synced the idle tail"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Kill the machine (no clean drop of the store on the crashed
        // timeline): what survives is the synced prefix only.
        let rebooted = tracking.crash_view();
        let s2 = StableStore::durable_on(
            rebooted,
            DurableConfig {
                fsync: FsyncPolicy::Always,
                segment_bytes: 1 << 20,
                compact_garbage_bytes: 1 << 20,
                auto_compact: false,
            },
        )
        .expect("reopen after crash");
        let rec = s2.load(uid).expect("the idle-synced checkpoint survives the crash");
        assert_eq!(rec.bytes, vec![9; 16]);
        drop(s);
    }

    /// The flusher leaves an already-stable tail alone: with nothing
    /// appended since the last sync, ticks must not issue fsyncs.
    #[test]
    fn interval_flusher_is_quiet_when_stable() {
        let fs = MemFs::new();
        let d = Duration::from_millis(10);
        let s = StableStore::durable_on(
            fs,
            DurableConfig {
                fsync: FsyncPolicy::Interval(d),
                segment_bytes: 1 << 20,
                compact_garbage_bytes: 1 << 20,
                auto_compact: false,
            },
        )
        .expect("open durable store");
        let uid = Uid::fresh();
        s.store(uid, "X", Bytes::from(vec![1])).unwrap();
        // Wait for the tail to go stable, then several more ticks.
        while s.stats().fsyncs == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let after_first = s.stats().fsyncs;
        std::thread::sleep(d * 6);
        assert_eq!(
            s.stats().fsyncs,
            after_first,
            "an idle, already-synced log must not keep fsyncing"
        );
    }

    #[test]
    fn concurrent_stores_coalesce_and_all_survive() {
        let fs = MemFs::new();
        let s = store_on(&fs, FsyncPolicy::Always);
        let uids: Vec<Uid> = (0..64).map(|_| Uid::fresh()).collect();
        std::thread::scope(|scope| {
            for chunk in uids.chunks(16) {
                let s = s.clone();
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
                let s = s.clone();
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
        let check = |s: &StableStore| {
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
        let log = DurableLog::open(std::sync::Arc::clone(&fs), DurableConfig {
            segment_bytes: 512,
            auto_compact: false,
            ..DurableConfig::default()
        })
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
            idx.records[&cold].frames().map(|f| f.0).collect::<Vec<u64>>()
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
        let failing = SyncTrackingFs::new();
        let fs: HostFsHandle = std::sync::Arc::clone(&failing) as HostFsHandle;
        let s = store_on(&fs, FsyncPolicy::Always);
        let uid = Uid::fresh();
        s.store(uid, "Counter", Bytes::from(vec![1])).unwrap();
        s.append(uid, Bytes::from(vec![2])).unwrap();
        let held = |s: &StableStore| {
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
            s.append(uid, Bytes::from(vec![*journal.last().unwrap()])).unwrap();
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
