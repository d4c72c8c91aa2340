//! Background compaction for the durable log.
//!
//! Overwritten checkpoints, their journals and tombstoned records leave dead
//! frames in sealed segments. The compactor rewrites a victim set's *live*
//! frames — a record's checkpoint, or any entry of its journal, each alone
//! (plus the current tombstone set) — into one fresh segment, re-points the
//! index at the copies, and deletes the victims. Correctness never depends
//! on where the fresh segment sorts: replay orders a UID's frames by
//! version, and a compacted copy carries its original version, so it can
//! never beat a newer write that landed concurrently.
//!
//! Two entry points share [`LogInner::compact_once`]:
//!
//! * the background thread ([`compactor_loop`]), woken by the committer
//!   when dead bytes across sealed segments cross the configured
//!   threshold — it takes any sealed segment that is at least half dead;
//! * the explicit [`StableBackend::compact`] hook, which seals the
//!   active segment first and then takes *every* sealed segment, giving
//!   tests and benches a deterministic "log is now minimal" point.
//!
//! [`StableBackend::compact`]: super::StableBackend::compact

use eden_core::{Result, Uid};

use super::durable::{LogInner, SegInfo};
use super::log::{self, LogEntry};

/// Wake/shutdown flags for the compactor thread (under the
/// `stable-compactor` lock).
#[derive(Debug, Default)]
pub(crate) struct CompactState {
    /// The committer saw enough sealed garbage to warrant a pass.
    pub(crate) wake: bool,
    /// The backend is being dropped.
    pub(crate) shutdown: bool,
}

/// The background thread: park until woken, compact, repeat.
pub(crate) fn compactor_loop(inner: &LogInner) {
    loop {
        {
            let mut st = inner.compact_mx.lock();
            while !st.wake && !st.shutdown {
                // eden-lint: nonblocking(dedicated compactor thread, never a pool worker)
                inner.compact_cv.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
            st.wake = false;
        }
        // Best-effort: an I/O error leaves the victims in place and the
        // index consistent; the next wake retries.
        let _ = inner.compact_once(false);
    }
}

impl LogInner {
    /// One compaction pass. `aggressive` seals the active segment first
    /// and rewrites every sealed segment; otherwise only segments at
    /// least half dead (or fully dead) are taken. Returns the bytes
    /// reclaimed.
    pub(crate) fn compact_once(&self, aggressive: bool) -> Result<u64> {
        // Phase 1 (brief index lock): pick victims, snapshot their live
        // frames and the tombstone set, reserve an output segment.
        let (victims, live, tombs, out_seg) = {
            let mut idx = self.index.lock();
            if aggressive && idx.active_len > 0 {
                idx.roll();
            }
            let active = idx.active_seg;
            let victims: Vec<u64> = idx
                .segments
                .iter()
                .filter(|(seq, info)| {
                    **seq != active
                        && (aggressive
                            || info.live_frames == 0
                            || info.live_bytes * 2 <= info.total_bytes)
                })
                .map(|(seq, _)| *seq)
                .collect();
            if victims.is_empty() {
                return Ok(0);
            }
            let live: Vec<LogEntry> = idx
                .records
                .iter()
                .flat_map(|(uid, e)| {
                    let held = e.frames().enumerate();
                    let held = held.filter(|(_, (seg, _))| victims.contains(seg));
                    held.map(|(i, _)| e.frame(*uid, i))
                })
                .collect();
            // Every tombstone rides along: a tombstone frame may live in
            // a victim while the put it kills survives in an older
            // segment, and dropping it would resurrect the record on
            // replay. Rewriting the full set is correct (replay takes
            // the max version) and the set only holds destroyed UIDs.
            let tombs: Vec<(Uid, u64)> = idx.tombstones.iter().map(|(u, v)| (*u, *v)).collect();
            let out_seg = idx.next_seg;
            idx.next_seg += 1;
            (victims, live, tombs, out_seg)
        };

        // Phase 2 (no locks): write the replacement segment whole, then
        // sync it — the victims are only deleted after their live data
        // is stable elsewhere.
        let mut buf = Vec::new();
        let mut frames: Vec<(Uid, u64, u64)> = Vec::with_capacity(live.len());
        for entry in &live {
            let frame = log::encode_frame(entry, &mut buf);
            frames.push((entry.uid(), entry.version(), frame));
        }
        for (uid, version) in &tombs {
            log::encode_frame(
                &LogEntry::Del {
                    uid: *uid,
                    version: *version,
                },
                &mut buf,
            );
        }
        let out_path = log::segment_name(out_seg);
        if !buf.is_empty() {
            self.fs.write(&out_path, &buf)?;
            // eden-lint: nonblocking(compactor thread or teardown flush, off the pool)
            self.fs.sync(&out_path)?;
            self.count_fsync(false);
        }

        // Phase 3 (brief index lock): re-point the frames that are still
        // what was copied — a version names one write for good, so a record
        // checkpointed anew or removed meanwhile no longer has it, keeps its
        // newer home, and the stale copy is garbage on arrival.
        let reclaimed = {
            let mut idx = self.index.lock();
            let mut out_info = SegInfo {
                total_bytes: buf.len() as u64,
                ..SegInfo::default()
            };
            for (uid, version, frame) in frames {
                let held = idx.records.get_mut(&uid).and_then(|e| {
                    let i = version.checked_sub(e.base_version())?;
                    e.frame_mut(i as usize)
                });
                if let Some(held) = held.filter(|(seg, _)| victims.contains(seg)) {
                    *held = (out_seg, frame);
                    out_info.live_bytes += frame;
                    out_info.live_frames += 1;
                }
            }
            if !buf.is_empty() {
                idx.segments.insert(out_seg, out_info);
            }
            let mut reclaimed = 0u64;
            for victim in &victims {
                if let Some(info) = idx.segments.remove(victim) {
                    reclaimed += info.total_bytes;
                }
            }
            reclaimed
        };

        // Phase 4 (no locks): drop the victim files. Best-effort — a
        // leftover file is replayed and found fully dead next open.
        for victim in &victims {
            let _ = self.fs.remove(&log::segment_name(*victim));
        }
        self.compactions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(reclaimed.saturating_sub(buf.len() as u64))
    }
}
