//! The stable store: where passive representations live.
//!
//! "The effect of Checkpointing is to create a *Passive Representation*, a
//! data structure designed to be durable across system crashes" (§1). The
//! store survives simulated crashes of individual Ejects and of the kernel
//! object itself (it can be detached and re-attached to a new kernel, which
//! is how the tests simulate whole-system restart) — and, behind
//! [`DurableLog`], real process deaths: checkpoints land in an append-only
//! CRC-framed segment log replayed on cold restart.
//!
//! The module family:
//!
//! * [`StableStore`] — the thin façade every caller sees; clones share one
//!   backend.
//! * [`StableBackend`] — the storage contract (store/append/load/remove/
//!   contains/iter plus flush/compact hooks), with two implementations:
//!   [`MemBacked`] (process-lifetime map) and [`DurableLog`] (the segment
//!   log).
//! * [`log`](self::log) — frame and segment codec (length-prefixed,
//!   CRC-framed records).
//! * [`committer`](self::committer) — group commit: concurrent `store()`
//!   and `append()` calls coalesce into one append + at most one fsync per
//!   batch, under a configurable [`FsyncPolicy`].
//! * [`compact`](self::compact) — background compaction rewriting live
//!   records into fresh segments and dropping sealed ones.
//! * [`replay`](self::replay) — cold-restart recovery: replays segments
//!   into the index, truncating a torn tail at the last valid frame.

pub mod committer;
pub mod compact;
pub mod durable;
pub mod log;
pub mod replay;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use eden_core::{EdenError, HostFsHandle, Result, Uid};
use parking_lot::Mutex;

pub use committer::FsyncPolicy;
pub use durable::{DurableConfig, DurableLog};

/// One passive representation: the last checkpoint and its journal.
#[derive(Clone, Debug, PartialEq)]
pub struct PassiveRecord {
    /// The Eden type name, used to find the reactivation constructor.
    pub type_name: String,
    /// The wire-encoded state, behind a shared buffer: reactivation
    /// decodes it zero-copy, and cloning the record (the store hands out
    /// clones) bumps a reference instead of copying the checkpoint.
    pub bytes: Bytes,
    /// The entries `append`ed since `bytes` was stored, oldest first, each
    /// wire-encoded and shared like it. Reactivation redoes them in order.
    pub journal: Vec<Bytes>,
    /// How many durable writes this Eject has made, of either form.
    /// Monotone per UID, and the journal's entries carry the versions just
    /// below it, so `bytes` was written at `version - journal.len()`: the
    /// durable log's replay keeps the highest-version checkpoint and the
    /// entries that follow it without a gap, wherever compaction put them.
    pub version: u64,
}

impl PassiveRecord {
    /// Bytes of state held: the checkpoint's and its journal's.
    pub fn stored_bytes(&self) -> usize {
        self.bytes.len() + self.journal.iter().map(Bytes::len).sum::<usize>()
    }
}

/// Counters a backend exposes for the observability plane (all zero for
/// backends without a log).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StableStats {
    /// Checkpointed Ejects currently stored.
    pub records: u64,
    /// Bytes of checkpointed state (payload only).
    pub bytes: u64,
    /// Segment files currently on the filing system.
    pub segments_live: u64,
    /// Total bytes across all live segments (frames, not payloads).
    pub log_bytes: u64,
    /// Completed compaction passes.
    pub compactions: u64,
    /// fsync calls issued by the committer.
    pub fsyncs: u64,
}

/// The storage contract behind [`StableStore`].
///
/// `store` takes the checkpoint's wire encoding as [`Bytes`] so the whole
/// checkpoint path moves references, never payload copies (the PR 2
/// invariant). An `Err` from `store` means the checkpoint is **not
/// durable** and the previous passive representation (if any) is still in
/// force for `load`; likewise from `append`.
pub trait StableBackend: Send + Sync + std::fmt::Debug + 'static {
    /// Write (or overwrite) the passive representation for `uid`, journal
    /// and all.
    fn store(&self, uid: Uid, type_name: &str, bytes: Bytes) -> Result<()>;
    /// Extend `uid`'s passive representation by one journal entry, as
    /// durable on return as a `store`. Refused for a UID with nothing stored.
    fn append(&self, uid: Uid, entry: Bytes) -> Result<()>;
    /// Read the passive representation for `uid`.
    fn load(&self, uid: Uid) -> Result<PassiveRecord>;
    /// Whether `uid` has a passive representation.
    fn contains(&self, uid: Uid) -> bool;
    /// Remove the passive representation for `uid`.
    fn remove(&self, uid: Uid) -> Result<()>;
    /// Every `(uid, record)` pair, in unspecified order.
    fn iter(&self) -> Vec<(Uid, PassiveRecord)>;
    /// All UIDs with a passive representation, in unspecified order.
    fn uids(&self) -> Vec<Uid>;
    /// Number of checkpointed Ejects.
    fn len(&self) -> usize;
    /// True when no Eject has checkpointed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total bytes of checkpointed state (diagnostics).
    fn total_bytes(&self) -> usize;
    /// Force everything stored so far to stable storage (a no-op for
    /// memory backends; an fsync of the active segment for the log).
    fn flush(&self) -> Result<()>;
    /// Rewrite live records into fresh segments and drop sealed ones
    /// (a no-op for memory backends).
    fn compact(&self) -> Result<()>;
    /// Backend counters for the observability plane.
    fn stats(&self) -> StableStats;
}

/// A durable map from UID to passive representation.
///
/// Cheap to clone; clones share the underlying backend, so a store created
/// before a kernel can outlive it. The façade adds nothing over
/// [`StableBackend`] except ergonomics (and a best-effort `remove` for the
/// destroy path); select the backend with [`StableStore::new`],
/// [`StableStore::durable`] / [`StableStore::durable_on`], or bring your own
/// via [`StableStore::with_backend`].
#[derive(Clone, Debug)]
pub struct StableStore {
    backend: Arc<dyn StableBackend>,
}

impl Default for StableStore {
    fn default() -> Self {
        StableStore {
            backend: Arc::new(MemBacked::default()),
        }
    }
}

impl StableStore {
    /// An empty, purely in-memory store.
    pub fn new() -> Self {
        StableStore::default()
    }

    /// Wrap an explicit backend.
    pub fn with_backend(backend: Arc<dyn StableBackend>) -> Self {
        StableStore { backend }
    }

    /// A log-structured durable store rooted at `path` on the real filing
    /// system (created if missing), with the given fsync policy.
    pub fn durable(path: impl Into<PathBuf>, fsync: FsyncPolicy) -> Result<StableStore> {
        let path = path.into();
        std::fs::create_dir_all(&path)
            .map_err(|e| EdenError::HostFs(format!("create {}: {e}", path.display())))?;
        let fs = eden_core::RealFs::new(path)?;
        StableStore::durable_on(fs, DurableConfig::with_fsync(fsync))
    }

    /// A log-structured durable store over any [`HostFs`] — `MemFs` in
    /// tests (the identical code path as disk), `RealFs` in production.
    ///
    /// [`HostFs`]: eden_core::HostFs
    pub fn durable_on(fs: HostFsHandle, config: DurableConfig) -> Result<StableStore> {
        Ok(StableStore {
            backend: Arc::new(DurableLog::open(fs, config)?),
        })
    }

    /// The backend handle (shared with every clone of this store).
    pub fn backend(&self) -> &Arc<dyn StableBackend> {
        &self.backend
    }

    /// Write (or overwrite) the passive representation for `uid`.
    ///
    /// `Err` means the checkpoint is **not durable** and the previous
    /// passive representation (if any) is still in force: a backend that
    /// fails the write keeps serving the prior record, so a failed
    /// Checkpoint can never be observed as having succeeded by a later
    /// load.
    pub fn store(&self, uid: Uid, type_name: &str, bytes: Bytes) -> Result<()> {
        self.backend.store(uid, type_name, bytes)
    }

    /// Extend `uid`'s passive representation by one journal entry; `Err`
    /// means what it does from [`store`](Self::store).
    pub fn append(&self, uid: Uid, entry: Bytes) -> Result<()> {
        self.backend.append(uid, entry)
    }

    /// Read the passive representation for `uid`.
    pub fn load(&self, uid: Uid) -> Result<PassiveRecord> {
        self.backend.load(uid)
    }

    /// Whether `uid` has a passive representation.
    pub fn contains(&self, uid: Uid) -> bool {
        self.backend.contains(uid)
    }

    /// Remove the passive representation for `uid` (the Eject is being
    /// destroyed, not merely deactivated). Best-effort: a backend that
    /// cannot persist the tombstone still forgets the record in memory.
    pub fn remove(&self, uid: Uid) {
        let _ = self.backend.remove(uid);
    }

    /// Number of checkpointed Ejects.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True when no Eject has checkpointed.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// All UIDs with a passive representation, in unspecified order.
    pub fn uids(&self) -> Vec<Uid> {
        self.backend.uids()
    }

    /// Total bytes of checkpointed state (diagnostics).
    pub fn total_bytes(&self) -> usize {
        self.backend.total_bytes()
    }

    /// Force everything stored so far to stable storage.
    pub fn flush(&self) -> Result<()> {
        self.backend.flush()
    }

    /// Ask the backend to compact its storage now (synchronous).
    pub fn compact(&self) -> Result<()> {
        self.backend.compact()
    }

    /// Backend counters for the observability plane.
    pub fn stats(&self) -> StableStats {
        self.backend.stats()
    }
}

/// The process-lifetime backend: a mutexed map.
#[derive(Debug, Default)]
pub struct MemBacked {
    inner: Mutex<HashMap<Uid, PassiveRecord>>,
}

impl MemBacked {
    /// An empty backend.
    pub fn new() -> Self {
        MemBacked::default()
    }
}

impl StableBackend for MemBacked {
    fn store(&self, uid: Uid, type_name: &str, bytes: Bytes) -> Result<()> {
        let mut map = self.inner.lock();
        let record = PassiveRecord {
            type_name: type_name.to_owned(),
            bytes,
            journal: Vec::new(),
            version: map.get(&uid).map_or(1, |r| r.version + 1),
        };
        map.insert(uid, record);
        Ok(())
    }

    fn append(&self, uid: Uid, entry: Bytes) -> Result<()> {
        let mut map = self.inner.lock();
        let record = map.get_mut(&uid).ok_or(EdenError::NoSuchEject(uid))?;
        record.journal.push(entry);
        record.version += 1;
        Ok(())
    }

    fn load(&self, uid: Uid) -> Result<PassiveRecord> {
        self.inner
            .lock()
            .get(&uid)
            .cloned()
            .ok_or(EdenError::NoSuchEject(uid))
    }

    fn contains(&self, uid: Uid) -> bool {
        self.inner.lock().contains_key(&uid)
    }

    fn remove(&self, uid: Uid) -> Result<()> {
        self.inner.lock().remove(&uid);
        Ok(())
    }

    fn iter(&self) -> Vec<(Uid, PassiveRecord)> {
        self.inner
            .lock()
            .iter()
            .map(|(u, r)| (*u, r.clone()))
            .collect()
    }

    fn uids(&self) -> Vec<Uid> {
        self.inner.lock().keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.inner.lock().len()
    }

    fn total_bytes(&self) -> usize {
        self.inner.lock().values().map(PassiveRecord::stored_bytes).sum()
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn compact(&self) -> Result<()> {
        Ok(())
    }

    fn stats(&self) -> StableStats {
        let map = self.inner.lock();
        StableStats {
            records: map.len() as u64,
            bytes: map.values().map(|r| r.stored_bytes() as u64).sum(),
            ..StableStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_roundtrip() {
        let s = StableStore::new();
        let uid = Uid::fresh();
        s.store(uid, "File", Bytes::from(vec![1, 2, 3])).unwrap();
        let rec = s.load(uid).unwrap();
        assert_eq!(rec.type_name, "File");
        assert_eq!(rec.bytes, vec![1, 2, 3]);
        assert_eq!(rec.version, 1);
    }

    #[test]
    fn versions_increment() {
        let s = StableStore::new();
        let uid = Uid::fresh();
        s.store(uid, "File", Bytes::from(vec![1])).unwrap();
        s.store(uid, "File", Bytes::from(vec![2])).unwrap();
        assert_eq!(s.load(uid).unwrap().version, 2);
        assert_eq!(s.load(uid).unwrap().bytes, vec![2]);
    }

    #[test]
    fn missing_uid_is_error() {
        let s = StableStore::new();
        assert!(matches!(
            s.load(Uid::fresh()),
            Err(EdenError::NoSuchEject(_))
        ));
    }

    #[test]
    fn clones_share_storage() {
        let s = StableStore::new();
        let s2 = s.clone();
        let uid = Uid::fresh();
        s.store(uid, "Dir", Bytes::from(vec![9])).unwrap();
        assert!(s2.contains(uid));
        s2.remove(uid);
        assert!(!s.contains(uid));
    }

    /// What both backends keep of a checkpoint and its journal. `open`
    /// yields the store, and again after each reopen: the same one for the
    /// memory backend, a cold replay of the same filing system for the log.
    /// Returns how many segments the writes were spread over.
    fn keeps_base_and_journal(open: impl Fn() -> StableStore) -> u64 {
        let bytes = |b: u8| Bytes::from(vec![b; 24]);
        let held = |s: &StableStore, uid| {
            let rec = s.load(uid).unwrap();
            let journal: Vec<u8> = rec.journal.iter().map(|e| e[0]).collect();
            (rec.bytes[0], journal, rec.version)
        };
        let (a, b) = (Uid::fresh(), Uid::fresh());
        let mut s = open();
        // An entry extends a checkpoint, and there is none yet.
        assert_eq!(s.append(a, bytes(9)), Err(EdenError::NoSuchEject(a)));
        assert!(!s.contains(a));
        // Two Ejects' writes interleaved: each keeps its own, in order.
        s.store(a, "T", bytes(10)).unwrap();
        s.store(b, "T", bytes(20)).unwrap();
        for e in 1..=4 {
            s.append(a, bytes(10 + e)).unwrap();
            s.append(b, bytes(20 + e)).unwrap();
        }
        let spread = s.stats().segments_live;
        for pass in ["written", "reopened", "compacted", "compacted and reopened"] {
            assert_eq!(held(&s, a), (10, vec![11, 12, 13, 14], 5), "{pass}");
            assert_eq!(held(&s, b), (20, vec![21, 22, 23, 24], 5), "{pass}");
            assert_eq!(s.stats().bytes, 2 * 5 * 24, "{pass}");
            match pass {
                "reopened" => s.compact().unwrap(),
                _ => {
                    drop(s);
                    s = open();
                }
            }
        }
        // A checkpoint starts the journal over; the next entry extends it.
        s.store(a, "T", bytes(30)).unwrap();
        assert_eq!(held(&s, a), (30, vec![], 6));
        s.append(a, bytes(31)).unwrap();
        // A removal takes checkpoint and journal both, for good.
        s.remove(b);
        assert_eq!(s.append(b, bytes(25)), Err(EdenError::NoSuchEject(b)));
        s.compact().unwrap();
        drop(s);
        let s = open();
        assert_eq!(held(&s, a), (30, vec![31], 7));
        assert!(!s.contains(b));
        assert_eq!(s.len(), 1);
        spread
    }

    #[test]
    fn memory_backend_keeps_base_and_journal() {
        let store = StableStore::new();
        assert_eq!(keeps_base_and_journal(|| store.clone()), 0);
    }

    #[test]
    fn durable_log_keeps_base_and_journal_across_reopen_and_compaction() {
        // Segments of a few frames each, so that a checkpoint and the
        // entries of its journal sit in different ones.
        let fs = eden_core::MemFs::new();
        let config = DurableConfig {
            segment_bytes: 256,
            auto_compact: false,
            ..DurableConfig::default()
        };
        let open = || StableStore::durable_on(Arc::clone(&fs), config).unwrap();
        assert!(keeps_base_and_journal(open) > 2);
    }

    #[test]
    fn accounting() {
        let s = StableStore::new();
        assert!(s.is_empty());
        let a = Uid::fresh();
        let b = Uid::fresh();
        s.store(a, "X", Bytes::from(vec![0; 10])).unwrap();
        s.store(b, "Y", Bytes::from(vec![0; 5])).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bytes(), 15);
        assert_eq!(s.uids().len(), 2);
        let stats = s.stats();
        assert_eq!(stats.records, 2);
        assert_eq!(stats.bytes, 15);
        assert_eq!(stats.segments_live, 0);
    }

    #[test]
    fn mem_backend_iter_matches_contents() {
        let s = StableStore::new();
        let a = Uid::fresh();
        s.store(a, "X", Bytes::from(vec![7])).unwrap();
        let all = s.backend().iter();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, a);
        assert_eq!(all[0].1.bytes, vec![7]);
    }
}
