//! Group commit for the durable log.
//!
//! Every mutation (`store`, `append`, `remove`) becomes a ticket in a shared
//! queue.
//! The first caller to find no leader becomes the leader and drives the
//! log: it drains the queue, assigns versions, encodes one buffer of
//! frames, appends it with a single host-fs `append`, fsyncs per policy,
//! applies the batch to the index, and wakes the waiters — if there are
//! any — then drains again until the queue is empty. Callers that arrive
//! while a leader is driving just enqueue and wait: their checkpoint rides
//! the leader's next batch, which is what turns N concurrent `store()`
//! calls into one append and at most one fsync.
//!
//! The durability contract per [`FsyncPolicy`]:
//!
//! * `Always` — a returned `store()` is on stable storage (the batch was
//!   fsynced before any of its tickets completed).
//! * `EveryN(n)` — a returned `store()` has been appended: it is in the
//!   host's page cache, and maybe not yet on stable storage. A batch is
//!   synced with its segment when it is the `n`-th since the last sync of
//!   the active segment, or when it fills its segment and seals it, so no
//!   roll leaves a segment behind with batches no sync has covered. Hence
//!   every completed batch but the last `n − 1` is on stable storage, and
//!   a crash loses at most those. Only a sync of the active segment (the
//!   committer's, or `flush`'s) restarts the count; the compactor's sync of
//!   its own output does not. A segment sealed by a failed append is
//!   synced then, on a best-effort basis. No timer syncs an idle tail: the
//!   next batch, an explicit `flush`, or dropping the log does.
//!
//! In every policy the *index* is updated only after a successful append,
//! so a failed `store()` can never be observed as durable by a later
//! load — checkpoint-before-reply holds all the way down. After an append
//! error the active segment is sealed: later appends go to a fresh file
//! rather than after a possibly-torn region.
//!
//! Of the leader's I/O only the fsync is a rendezvous, so only it runs
//! under the scheduler's blocking compensation: an append lands in the
//! page cache and returns, and the stall monitor covers one the host
//! throttles.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use eden_core::{EdenError, Result};
use parking_lot::Condvar;

use super::durable::{IndexEntry, LogInner};
use super::log::{self, LogEntry};

/// When the committer fsyncs the active segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync every batch before completing its tickets (full durability;
    /// group commit amortises the cost across coalesced callers).
    Always,
    /// fsync at least every `n` committed batches.
    EveryN(u32),
}

/// The committer's shared queue state (under the `stable-committer` lock).
#[derive(Debug, Default)]
pub(crate) struct CommitQueue {
    /// Queued mutations, versions unassigned, in ticket order: the last
    /// holds ticket `next_ticket - 1`.
    pending: Vec<LogEntry>,
    /// Whether some caller is currently driving batches.
    leader: bool,
    next_ticket: u64,
    /// Every ticket ≤ this has been applied (or failed).
    complete: u64,
    /// Callers parked on `commit_done` (followers and `flush`).
    waiters: u32,
    /// Error messages for failed tickets, collected by their waiters.
    failed: HashMap<u64, String>,
}

impl CommitQueue {
    /// Wake the parked callers, if there are any: with none, a notify is
    /// a wasted syscall.
    fn wake(&self, done: &Condvar) {
        if self.waiters > 0 {
            done.notify_all();
        }
    }
}

impl LogInner {
    /// Enqueue `entry` (its version is assigned in the batch) and see it
    /// through to completion, leading a batch if nobody else is. Returns
    /// once the mutation is applied per the fsync policy's contract, or
    /// with the append/sync error.
    pub(crate) fn submit(&self, entry: LogEntry) -> Result<()> {
        let ticket;
        {
            let mut q = self.commit.lock();
            ticket = q.next_ticket;
            q.next_ticket += 1;
            q.pending.push(entry);
            if q.leader {
                // A leader is driving; our ticket rides its next batch.
                q.waiters += 1;
                while q.complete < ticket {
                    crate::sched::blocking(|| self.commit_done.wait(&mut q));
                }
                q.waiters -= 1;
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
            let (batch, last) = {
                let mut q = self.commit.lock();
                if q.pending.is_empty() {
                    q.leader = false;
                    q.wake(&self.commit_done);
                    break;
                }
                (std::mem::take(&mut q.pending), q.next_ticket - 1)
            };
            let first = last + 1 - batch.len() as u64;
            let outcome = self.commit_batch(batch);
            let mut q = self.commit.lock();
            if let Err(e) = outcome {
                let msg = e.to_string();
                for ticket in first..=last {
                    if ticket == own_ticket {
                        own_result = Err(EdenError::HostFs(msg.clone()));
                    } else {
                        q.failed.insert(ticket, msg.clone());
                    }
                }
            }
            q.complete = q.complete.max(last);
            q.wake(&self.commit_done);
        }
        own_result
    }

    /// Append one batch to the active segment, fsync per policy, and
    /// apply it to the index. All-or-nothing per batch: on error the
    /// index is untouched and the active segment is sealed.
    fn commit_batch(&self, mut batch: Vec<LogEntry>) -> Result<()> {
        // Version assignment must linearise with log-append order, and
        // the single leader is the only appender, so assigning under a
        // brief index lock (and applying later in the same batch) is
        // race-free.
        let mut buf = Vec::new();
        let mut frames = Vec::with_capacity(batch.len());
        let (seg, path, seals) = {
            let idx = self.index.lock();
            for i in 0..batch.len() {
                let uid = batch[i].uid();
                // A batch holds one entry a caller, so the look back for
                // an earlier write of `uid` in it is short.
                let base = batch[..i]
                    .iter()
                    .rfind(|e| e.uid() == uid)
                    .map(LogEntry::version)
                    .or_else(|| idx.records.get(&uid).map(|e| e.record.version))
                    .or_else(|| idx.tombstones.get(&uid).copied())
                    .unwrap_or(0);
                batch[i].set_version(base + 1);
                // Framing writes a checkpoint's bytes into the append
                // buffer; the index keeps the shared buffer itself.
                frames.push(log::encode_frame(&batch[i], &mut buf));
            }
            let seals = idx.active_len + buf.len() as u64 >= self.cfg.segment_bytes;
            (idx.active_seg, Arc::clone(&idx.active_name), seals)
        };

        // The slow half runs outside every lock. The append only copies
        // into the page cache; the fsync waits on the device, so it alone
        // runs under the scheduler's blocking compensation. A batch that
        // seals its segment syncs it: no later sync covers a sealed file.
        let sync_now = seals || self.due_for_sync();
        let io = self.fs.append(&path, &buf).and_then(|_| {
            if sync_now {
                crate::sched::blocking(|| self.fs.sync(&path))
            } else {
                Ok(())
            }
        });
        if let Err(e) = io {
            // The file may hold a torn region; seal it so the next batch
            // starts a fresh segment. Replay tolerates the tear. The
            // batches before this one are owed a sync, paid now if it can be.
            if self.batches_since_sync.load(Ordering::Relaxed) > 0
                && crate::sched::blocking(|| self.fs.sync(&path)).is_ok()
            {
                self.count_fsync(true);
            }
            self.index.lock().roll();
            return Err(e);
        }
        if sync_now {
            self.count_fsync(true);
        } else {
            self.batches_since_sync.fetch_add(1, Ordering::Relaxed);
        }

        // Apply to the index: from here the new versions are loadable.
        let appended = buf.len() as u64;
        let mut wake_compactor = false;
        {
            let mut idx = self.index.lock();
            for (entry, frame) in batch.into_iter().zip(frames) {
                idx.segments.entry(seg).or_default().total_bytes += frame;
                match entry {
                    LogEntry::Put { uid, record } => {
                        idx.release(uid);
                        idx.tombstones.remove(&uid);
                        let entry = IndexEntry {
                            record,
                            at: (seg, frame),
                            journal_at: Vec::new(),
                        };
                        idx.records.insert(uid, entry);
                        idx.segments.entry(seg).or_default().hold(frame);
                    }
                    LogEntry::Append {
                        uid,
                        version,
                        entry,
                    } => {
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
            if seals {
                idx.roll();
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
        }
    }

    /// Wait out any in-flight leader, then fsync the active segment.
    pub(crate) fn flush(&self) -> Result<()> {
        let mut q = self.commit.lock();
        q.waiters += 1;
        while q.leader {
            crate::sched::blocking(|| self.commit_done.wait(&mut q));
        }
        q.waiters -= 1;
        // Holding the queue lock keeps new batches out while the tail
        // goes stable.
        let path = Arc::clone(&self.index.lock().active_name);
        if self.fs.exists(&path) {
            crate::sched::blocking(|| self.fs.sync(&path))?;
            self.count_fsync(true);
        }
        drop(q);
        Ok(())
    }
}
