//! Group commit for the durable log.
//!
//! Every mutation (`store`, `append`, `remove`) becomes a ticket in a shared
//! queue.
//! The first caller to find no leader becomes the leader and drives the
//! log: it drains the queue, assigns versions, encodes one buffer of
//! frames, appends it with a single host-fs `append`, fsyncs per policy,
//! applies the batch to the index, and wakes the waiters — then drains
//! again until the queue is empty. Callers that arrive while a leader is
//! driving just enqueue and wait: their checkpoint rides the leader's
//! next batch, which is what turns N concurrent `store()` calls into one
//! append and at most one fsync.
//!
//! The durability contract per [`FsyncPolicy`]:
//!
//! * `Always` — a returned `store()` is on stable storage (the batch was
//!   fsynced before any of its tickets completed).
//! * `EveryN(n)` — the append has happened; an fsync lands at least every
//!   `n` batches, so a crash loses at most the last `n` batches.
//! * `Interval(d)` — the append has happened; an fsync lands once `d` has
//!   elapsed since the previous one. A dedicated flush timer
//!   ([`flusher_loop`]) syncs an *idle* tail too: without it the policy
//!   only ever fsynced from inside the next `commit_batch`, so a lone
//!   `store()` followed by quiet hours stayed forever unsynced — a crash
//!   then lost a checkpoint the caller had long been told was stored.
//!
//! In every policy the *index* is updated only after a successful append,
//! so a failed `store()` can never be observed as durable by a later
//! load — checkpoint-before-reply holds all the way down. After an append
//! error the active segment is sealed: later appends go to a fresh file
//! rather than after a possibly-torn region.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

use bytes::Bytes;
use eden_core::{EdenError, Result, Uid};

use super::durable::{IndexEntry, LogInner, SegInfo};
use super::log::{self, LogEntry};
use super::PassiveRecord;

/// When the committer fsyncs the active segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync every batch before completing its tickets (full durability;
    /// group commit amortises the cost across coalesced callers).
    Always,
    /// fsync at least every `n` committed batches.
    EveryN(u32),
    /// fsync once the given interval has elapsed since the last one.
    Interval(Duration),
}

/// Shutdown flag for the interval-flusher thread (under the
/// `stable-flusher` lock).
#[derive(Debug, Default)]
pub(crate) struct FlushState {
    /// The backend is being dropped.
    pub shutdown: bool,
}

/// The interval-policy flush timer: wake every `d`, and if batches were
/// committed without a sync and the interval has elapsed since the last
/// one, fsync the tail. This is what makes `Interval(d)`'s contract hold
/// when the system goes idle — `due_for_sync` is only consulted inside
/// `commit_batch`, so without this thread the *next* store was the only
/// thing that could sync the last one.
pub(crate) fn flusher_loop(inner: &LogInner) {
    let FsyncPolicy::Interval(d) = inner.cfg.fsync else {
        return;
    };
    let tick = d.max(Duration::from_millis(1));
    loop {
        {
            let mut st = inner.flush_mx.lock();
            if st.shutdown {
                return;
            }
            // eden-lint: timer(fsync-interval)
            // eden-lint: nonblocking(dedicated flusher thread, never a pool worker)
            inner.flush_cv.wait_for(&mut st, tick);
            if st.shutdown {
                return;
            }
        }
        // Nothing appended since the last sync: the tail is already
        // stable, don't touch the filing system.
        if inner.batches_since_sync.load(Ordering::Relaxed) == 0 {
            continue;
        }
        let last = inner.last_sync_micros.load(Ordering::Relaxed);
        let now = inner.created.elapsed().as_micros() as u64;
        if now.saturating_sub(last) < d.as_micros() as u64 {
            continue;
        }
        // Best-effort: an I/O error here will be retried on the next tick
        // (and surfaced by the next store or explicit flush).
        let _ = inner.flush();
    }
}

/// One queued mutation.
#[derive(Debug)]
pub(crate) enum Op {
    /// A checkpoint.
    Put {
        /// The checkpointing Eject.
        uid: Uid,
        /// Its Eden type name.
        type_name: String,
        /// The wire-encoded state (shared; never copied on this path).
        bytes: Bytes,
    },
    /// A journal entry beside the last checkpoint.
    Append {
        /// The journaling Eject.
        uid: Uid,
        /// The wire-encoded entry (shared like a checkpoint's bytes).
        entry: Bytes,
    },
    /// A destruction tombstone.
    Del {
        /// The destroyed Eject.
        uid: Uid,
    },
}

#[derive(Debug)]
pub(crate) struct Pending {
    ticket: u64,
    op: Op,
}

/// The committer's shared queue state (under the `stable-committer` lock).
#[derive(Debug, Default)]
pub(crate) struct CommitQueue {
    pending: Vec<Pending>,
    /// Whether some caller is currently driving batches.
    leader: bool,
    next_ticket: u64,
    /// Every ticket ≤ this has been applied (or failed).
    complete: u64,
    /// Error messages for failed tickets, collected by their waiters.
    failed: HashMap<u64, String>,
}

impl LogInner {
    /// Enqueue `op` and see it through to completion (leading a batch if
    /// nobody else is). Returns once the mutation is applied per the
    /// fsync policy's contract, or with the append/sync error.
    pub(crate) fn submit(&self, op: Op) -> Result<()> {
        let ticket;
        {
            let mut q = self.commit.lock();
            ticket = q.next_ticket;
            q.next_ticket += 1;
            q.pending.push(Pending { ticket, op });
            if q.leader {
                // A leader is driving; our ticket rides its next batch.
                while q.complete < ticket {
                    crate::sched::blocking(|| self.commit_done.wait(&mut q));
                }
                return match q.failed.remove(&ticket) {
                    Some(msg) => Err(EdenError::HostFs(msg)),
                    None => Ok(()),
                };
            }
            q.leader = true;
        }
        self.lead(ticket)
    }

    /// Drive batches until the queue drains; called with the leader flag
    /// set and no locks held.
    fn lead(&self, own_ticket: u64) -> Result<()> {
        let mut own_result = Ok(());
        loop {
            let batch = {
                let mut q = self.commit.lock();
                if q.pending.is_empty() {
                    q.leader = false;
                    self.commit_done.notify_all();
                    break;
                }
                std::mem::take(&mut q.pending)
            };
            let outcome = self.commit_batch(&batch);
            {
                let mut q = self.commit.lock();
                let last = batch.last().map_or(q.complete, |p| p.ticket);
                if let Err(e) = &outcome {
                    let msg = e.to_string();
                    for p in &batch {
                        if p.ticket == own_ticket {
                            own_result = Err(EdenError::HostFs(msg.clone()));
                        } else {
                            q.failed.insert(p.ticket, msg.clone());
                        }
                    }
                }
                if q.complete < last {
                    q.complete = last;
                }
                self.commit_done.notify_all();
            }
        }
        own_result
    }

    /// Append one batch to the active segment, fsync per policy, and
    /// apply it to the index. All-or-nothing per batch: on error the
    /// index is untouched and the active segment is sealed.
    fn commit_batch(&self, batch: &[Pending]) -> Result<()> {
        // Version assignment must linearise with log-append order, and
        // the single leader is the only appender, so assigning under a
        // brief index lock (and applying later in the same batch) is
        // race-free.
        let mut buf = Vec::new();
        let mut entries: Vec<(LogEntry, u64)> = Vec::with_capacity(batch.len());
        let seg = {
            let idx = self.index.lock();
            let mut assigned: HashMap<Uid, u64> = HashMap::new();
            for p in batch {
                let uid = match &p.op {
                    Op::Put { uid, .. } | Op::Append { uid, .. } | Op::Del { uid } => *uid,
                };
                let base = assigned
                    .get(&uid)
                    .copied()
                    .or_else(|| idx.records.get(&uid).map(|e| e.record.version))
                    .or_else(|| idx.tombstones.get(&uid).copied())
                    .unwrap_or(0);
                let version = base + 1;
                assigned.insert(uid, version);
                let entry = match &p.op {
                    Op::Put {
                        uid,
                        type_name,
                        bytes,
                    } => LogEntry::Put {
                        uid: *uid,
                        record: PassiveRecord {
                            type_name: type_name.clone(),
                            // Shared buffer: framing writes the bytes into
                            // the append buffer, the index aliases them.
                            bytes: bytes.clone(),
                            journal: Vec::new(),
                            version,
                        },
                    },
                    Op::Append { uid, entry } => LogEntry::Append {
                        uid: *uid,
                        version,
                        entry: entry.clone(),
                    },
                    Op::Del { uid } => LogEntry::Del { uid: *uid, version },
                };
                let frame = log::encode_frame(&entry, &mut buf);
                entries.push((entry, frame));
            }
            idx.active_seg
        };

        // The slow half — append and maybe fsync — runs outside every
        // lock, under the scheduler's blocking compensation so a worker
        // stuck in fsync doesn't starve the Eject pool.
        let path = log::segment_name(seg);
        let sync_now = self.due_for_sync();
        let io = crate::sched::blocking(|| -> Result<()> {
            self.fs.append(&path, &buf)?;
            if sync_now {
                self.fs.sync(&path)?;
            }
            Ok(())
        });
        if let Err(e) = io {
            // The file may hold a torn region; seal it so the next batch
            // starts a fresh segment. Replay tolerates the tear.
            let mut idx = self.index.lock();
            let sealed = idx.next_seg;
            idx.next_seg += 1;
            idx.active_seg = sealed;
            idx.active_len = 0;
            idx.segments.insert(sealed, SegInfo::default());
            return Err(e);
        }
        if sync_now {
            self.count_fsync();
        } else {
            self.batches_since_sync.fetch_add(1, Ordering::Relaxed);
        }

        // Apply to the index: from here the new versions are loadable.
        let appended = buf.len() as u64;
        let mut wake_compactor = false;
        {
            let mut idx = self.index.lock();
            for (entry, frame) in entries {
                idx.segments.entry(seg).or_default().total_bytes += frame;
                match entry {
                    LogEntry::Put { uid, record } => {
                        idx.release(uid);
                        idx.tombstones.remove(&uid);
                        let entry = IndexEntry { record, at: (seg, frame), journal_at: Vec::new() };
                        idx.records.insert(uid, entry);
                        idx.segments.entry(seg).or_default().hold(frame);
                    }
                    LogEntry::Append { uid, version, entry } => {
                        if let Some(e) = idx.records.get_mut(&uid) {
                            e.record.journal.push(entry);
                            e.record.version = version;
                            e.journal_at.push((seg, frame));
                            idx.segments.entry(seg).or_default().hold(frame);
                        }
                    }
                    LogEntry::Del { uid, version } => {
                        idx.release(uid);
                        idx.tombstones.insert(uid, version);
                    }
                }
            }
            idx.active_len += appended;
            if idx.active_len >= self.cfg.segment_bytes {
                let fresh = idx.next_seg;
                idx.next_seg += 1;
                idx.active_seg = fresh;
                idx.active_len = 0;
                idx.segments.insert(fresh, SegInfo::default());
            }
            if self.cfg.auto_compact {
                let active = idx.active_seg;
                let garbage: u64 = idx
                    .segments
                    .iter()
                    .filter(|(s, _)| **s != active)
                    .map(|(_, i)| i.total_bytes.saturating_sub(i.live_bytes))
                    .sum();
                wake_compactor = garbage >= self.cfg.compact_garbage_bytes;
            }
        }
        if wake_compactor {
            let mut st = self.compact_mx.lock();
            st.wake = true;
            drop(st);
            self.compact_cv.notify_all();
        }
        Ok(())
    }

    /// Whether the policy calls for an fsync on the batch being built.
    fn due_for_sync(&self) -> bool {
        match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => {
                self.batches_since_sync.load(Ordering::Relaxed) + 1 >= n.max(1)
            }
            FsyncPolicy::Interval(d) => {
                let last = self.last_sync_micros.load(Ordering::Relaxed);
                self.created.elapsed().as_micros() as u64 - last >= d.as_micros() as u64
            }
        }
    }

    /// Wait out any in-flight leader, then fsync the active segment.
    pub(crate) fn flush(&self) -> Result<()> {
        let mut q = self.commit.lock();
        while q.leader {
            crate::sched::blocking(|| self.commit_done.wait(&mut q));
        }
        // Holding the queue lock keeps new batches out while the tail
        // goes stable.
        let path = {
            let idx = self.index.lock();
            log::segment_name(idx.active_seg)
        };
        if self.fs.exists(&path) {
            crate::sched::blocking(|| self.fs.sync(&path))?;
            self.count_fsync();
        }
        drop(q);
        Ok(())
    }
}
