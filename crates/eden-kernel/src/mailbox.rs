//! Kernel-owned Eject mailboxes.
//!
//! Until the density plane landed, every Eject owned a crossbeam channel
//! and a coordinator thread blocked on `recv()`. Both sides of that pair
//! priced an *idle* Eject like a busy one: the channel kept its buffer
//! allocated, and the thread kept a stack resident. This module replaces
//! the channel with a mailbox the kernel owns directly, designed around
//! two costs:
//!
//! * **Idle RSS.** The ring is a [`VecDeque`] that starts unallocated and
//!   is released again once a burst drains (`SHRINK_CAPACITY`), so a
//!   parked Eject's mailbox is a pointer-sized husk, not a buffer.
//! * **Wakeup.** The mailbox carries the Eject's *parking bit* — the
//!   `MailboxCore::park_state` machine the scheduler runs
//!   its state transitions on. A sender that lands mail on a `PARKED`
//!   mailbox enqueues the owning task; one that lands mail on a `RUNNING`
//!   mailbox merely marks it dirty, and the running worker re-checks
//!   before parking. The push-then-notify order (the push happens under
//!   the ring mutex, the notify after it is released) is what makes the
//!   protocol lossless — see `park_vs_deliver` in `tests/loom_model.rs`.
//!
//! # Admission control
//!
//! A bounded mailbox (`bound: Some(n)`) turns away, at once, an invocation
//! that arrives at a full ring; the kernel resolves its reply with the
//! retryable `EdenError::Overloaded`, which `invoke_with` retry/backoff
//! turns into client-side rate control. No sender ever waits for room, and
//! nothing admitted is evicted. Only invocations count: `Internal` events
//! are stream data, and `Crash` and `Shutdown` must land, so both go in
//! past the bound. Once the mailbox closed, a push answers `Closed` with
//! the envelope — the staleness signal cached routes rely on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use crate::runtime::Envelope;
use crate::sched::{Task, Woken};

/// Ring capacities at or above this are released when the ring drains, so
/// a burst does not pin its high-water mark for the rest of an idle
/// Eject's life. Below it, the ring is kept — a hot stage reuses its
/// allocation instead of churning the allocator every batch.
const SHRINK_CAPACITY: usize = 64;

/// The parking-bit states. Stored in `MailboxCore::park_state`.
pub mod park {
    /// Not queued, not running; the next delivery must enqueue the task.
    pub const PARKED: u8 = 0;
    /// In the run queue awaiting a worker, or in the hands of the calling
    /// sender that woke it and is about to run it itself.
    pub const QUEUED: u8 = 1;
    /// A thread is draining the mailbox right now.
    pub const RUNNING: u8 = 2;
    /// Running, and mail arrived since the runner last checked the ring.
    pub const DIRTY: u8 = 3;
    /// The Eject exited; deliveries fail and wake nobody.
    pub(crate) const DEAD: u8 = 4;
}

/// The parking-bit protocol as one declarative transition table — the
/// **single source** every checker derives from:
///
/// * `eden-lint --protocol` extracts each CAS/store on the bit from
///   `mailbox.rs` and `sched.rs` (store sites carry a
///   `// eden-lint: transition(FROM -> TO)` annotation naming the states
///   the machine can be in when the store lands) and verifies the code
///   and this table describe exactly the same machine, both directions:
///   a code transition missing here fails the lint, and a table row no
///   code site implements fails it too.
/// * The `park_vs_deliver` loom model (`tests/loom_model.rs`) asserts
///   every transition it performs through
///   [`assert_transition`](crate::mailbox::spec::assert_transition), so the
///   dynamic model can never drift from the table the static pass
///   enforces.
///
/// Editing the machine therefore means editing this table, and the lint
/// points at every site that must follow.
pub mod spec {
    use super::park;

    /// Which side of the protocol performs a transition.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Actor {
        /// A thread delivering mail (`MailboxCore::wake_after_push`).
        Sender,
        /// Whoever resumes or reaps the task (`sched.rs`): a pool worker,
        /// or a sender running as a call the task its own push woke.
        Worker,
        /// The spawn path queueing a task's first resume.
        Spawner,
    }

    /// The atomic shape of a transition site.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Op {
        /// A `compare_exchange` — the from-state is proven by the CAS.
        Cas,
        /// A plain `store` — legal only from the annotated from-states.
        Store,
    }

    /// One legal edge of the parking-bit state machine.
    #[derive(Debug, Clone, Copy)]
    pub struct Transition {
        /// State the bit must hold before the edge.
        pub from: u8,
        /// State the edge moves it to.
        pub to: u8,
        /// Who may perform it.
        pub actor: Actor,
        /// CAS or store.
        pub op: Op,
        /// What the edge means, stable across refactors.
        pub role: &'static str,
    }

    /// Every legal transition. Anything not in this table is a protocol
    /// violation — statically (eden-lint) and dynamically (loom).
    pub const TRANSITIONS: &[Transition] = &[
        Transition {
            from: park::PARKED,
            to: park::QUEUED,
            actor: Actor::Sender,
            op: Op::Cas,
            role: "deliver-wake",
        },
        Transition {
            from: park::RUNNING,
            to: park::DIRTY,
            actor: Actor::Sender,
            op: Op::Cas,
            role: "dirty-mark",
        },
        Transition {
            from: park::PARKED,
            to: park::QUEUED,
            actor: Actor::Spawner,
            op: Op::Store,
            role: "spawn-enqueue",
        },
        Transition {
            from: park::QUEUED,
            to: park::RUNNING,
            actor: Actor::Worker,
            op: Op::Store,
            role: "pickup",
        },
        Transition {
            from: park::RUNNING,
            to: park::QUEUED,
            actor: Actor::Worker,
            op: Op::Store,
            role: "budget-requeue",
        },
        Transition {
            from: park::DIRTY,
            to: park::QUEUED,
            actor: Actor::Worker,
            op: Op::Store,
            role: "budget-requeue",
        },
        Transition {
            from: park::RUNNING,
            to: park::PARKED,
            actor: Actor::Worker,
            op: Op::Cas,
            role: "park",
        },
        Transition {
            from: park::DIRTY,
            to: park::RUNNING,
            actor: Actor::Worker,
            op: Op::Store,
            role: "dirty-reclaim",
        },
        Transition {
            from: park::RUNNING,
            to: park::DEAD,
            actor: Actor::Worker,
            op: Op::Store,
            role: "reap",
        },
        Transition {
            from: park::DIRTY,
            to: park::DEAD,
            actor: Actor::Worker,
            op: Op::Store,
            role: "reap",
        },
    ];

    /// The display name of a park state.
    pub fn state_name(state: u8) -> &'static str {
        match state {
            park::PARKED => "PARKED",
            park::QUEUED => "QUEUED",
            park::RUNNING => "RUNNING",
            park::DIRTY => "DIRTY",
            park::DEAD => "DEAD",
            _ => "?",
        }
    }

    /// Parse a park-state name as written in `transition(..)` annotations.
    pub fn state_by_name(name: &str) -> Option<u8> {
        match name {
            "PARKED" => Some(park::PARKED),
            "QUEUED" => Some(park::QUEUED),
            "RUNNING" => Some(park::RUNNING),
            "DIRTY" => Some(park::DIRTY),
            "DEAD" => Some(park::DEAD),
            _ => None,
        }
    }

    /// Whether the table has an edge `from -> to` under `op`.
    pub fn allows_op(from: u8, to: u8, op: Op) -> bool {
        TRANSITIONS
            .iter()
            .any(|t| t.from == from && t.to == to && t.op == op)
    }

    /// Whether the table has an edge `from -> to` under any op.
    pub(crate) fn allows(from: u8, to: u8) -> bool {
        TRANSITIONS.iter().any(|t| t.from == from && t.to == to)
    }

    /// Assert an observed transition is in the table (the loom models'
    /// per-step hook; also usable by stress tests).
    ///
    /// # Panics
    /// On any edge the table does not bless.
    pub fn assert_transition(from: u8, to: u8) {
        assert!(
            allows(from, to),
            "illegal parking-bit transition {} -> {}",
            state_name(from),
            state_name(to),
        );
    }
}

/// What a push did with its envelope, in one flat answer: the hop moves
/// its envelope into the ring once, and a refused one comes straight back.
/// A rejected envelope carries a live [`ReplyHandle`](crate::ReplyHandle)
/// the caller must resolve (the kernel resolves sheds with
/// `EdenError::Overloaded` and counts them) — dropping one would misreport
/// the shed as a crash.
pub(crate) enum Pushed {
    /// In the ring, with the wake this push won, if it won one.
    Delivered(Option<Woken>),
    /// A full bounded ring turned the arriving invocation away.
    Rejected(Envelope),
    /// The mailbox closed; the envelope comes back so the caller can
    /// redeliver it (the stale-route fallback).
    Closed(Envelope),
}

struct Ring {
    q: VecDeque<Envelope>,
    /// Closed mailboxes reject every send with the envelope returned —
    /// exactly a crossbeam channel whose receiver was dropped.
    closed: bool,
}

/// The shared heart of one Eject's mailbox.
pub(crate) struct MailboxCore {
    /// The ring buffer, lazily allocated. Field is named `mailq` so the
    /// lock-order audit can pattern-match acquisitions (`mailbox-queue`).
    mailq: Mutex<Ring>,
    /// `Some(n)`: an invocation that finds `n` envelopes queued is turned
    /// away.
    bound: Option<usize>,
    /// The parking bit (see [`park`]).
    park_state: AtomicU8,
    /// Whom a delivery wakes; set once, when the task is created. Weak: a
    /// parked task is kept alive by its registry slot, never by its own
    /// mailbox (which the task itself owns). The task holds its scheduler.
    wake: OnceLock<Weak<Task>>,
}

impl MailboxCore {
    fn new(bound: Option<usize>) -> Arc<MailboxCore> {
        Arc::new(MailboxCore {
            mailq: Mutex::new(Ring {
                q: VecDeque::new(),
                closed: false,
            }),
            bound,
            park_state: AtomicU8::new(park::PARKED),
            wake: OnceLock::new(),
        })
    }

    /// Wire this mailbox to its scheduler task. Called once at task
    /// creation, before the task is first enqueued.
    pub(crate) fn attach_task(&self, task: &Arc<Task>) {
        let _ = self.wake.set(Arc::downgrade(task));
    }

    /// The parking bit, for the scheduler's CAS transitions.
    pub(crate) fn park_bit(&self) -> &AtomicU8 {
        &self.park_state
    }

    /// Run the sender side of the parking protocol after a push. `Some` if
    /// this push flipped `PARKED -> QUEUED` and so owes the task a run;
    /// `None` if the task is already queued, or was running and is now marked
    /// dirty. Must be called with the ring mutex *released*: spending the
    /// wake lands the task on the run queue plus a sleeper wake, or on the
    /// sender's own stack, and
    /// `mailbox-queue` stays a leaf on the delivery path.
    fn wake_after_push(&self) -> Option<Woken> {
        // No task yet: it is attached before it is first enqueued, and looks
        // at the ring when it is.
        let wake = self.wake.get()?;
        loop {
            // eden-lint: ordering(park-state-machine)
            match self.park_state.load(Ordering::Acquire) {
                park::PARKED => {
                    // eden-lint: ordering(park-state-machine)
                    if self
                        .park_state
                        .compare_exchange(
                            park::PARKED,
                            park::QUEUED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        // Task gone: teardown won the race; nobody is
                        // left to run the mail.
                        return wake.upgrade().map(|task| Woken { task });
                    }
                }
                park::RUNNING => {
                    // eden-lint: ordering(park-state-machine)
                    if self
                        .park_state
                        .compare_exchange(
                            park::RUNNING,
                            park::DIRTY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return None;
                    }
                }
                // Already queued/dirty (someone else's push won), or dead.
                _ => return None,
            }
        }
    }

    /// Land an envelope and hand the caller the wake it won, if it won one.
    /// An invocation that finds a bounded ring full comes back rejected.
    fn push(&self, envelope: Envelope) -> Pushed {
        {
            let mut ring = self.mailq.lock();
            if ring.closed {
                return Pushed::Closed(envelope);
            }
            let full = self.bound.is_some_and(|cap| ring.q.len() >= cap);
            if full && matches!(envelope, Envelope::Invocation(..)) {
                return Pushed::Rejected(envelope);
            }
            ring.q.push_back(envelope);
        }
        Pushed::Delivered(self.wake_after_push())
    }

    /// Pop one envelope, and set `emptied` exactly when this pop took the
    /// last one queued. Shrinks an oversized ring on drain.
    pub(crate) fn pop(&self, emptied: &mut bool) -> Option<Envelope> {
        let mut ring = self.mailq.lock();
        let envelope = ring.q.pop_front();
        *emptied = envelope.is_some() && ring.q.is_empty();
        if *emptied && ring.q.capacity() >= SHRINK_CAPACITY {
            ring.q = VecDeque::new();
        }
        envelope
    }

    /// Put back the envelope [`pop`](Self::pop) just handed out, at the
    /// front, for the task's next resume. Only the task's own runner calls
    /// this, and only it closes the mailbox, so the ring is still open; a
    /// bounded ring whose freed place a sender took meanwhile holds one
    /// envelope over its capacity until the next pop.
    pub(crate) fn unpop(&self, envelope: Envelope) {
        self.mailq.lock().q.push_front(envelope);
    }

    /// Close the mailbox and return everything still queued. Dropping the
    /// returned envelopes resolves their replies with `EjectCrashed` —
    /// the fail-fast the old drain loop provided. Atomic under the ring
    /// mutex: no envelope can land between the drain and the close.
    pub(crate) fn close(&self) -> VecDeque<Envelope> {
        let mut ring = self.mailq.lock();
        ring.closed = true;
        std::mem::take(&mut ring.q)
    }
}

impl std::fmt::Debug for MailboxCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailboxCore")
            .field("bound", &self.bound)
            .field("park_state", &self.park_state.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The sending half of a mailbox; its owning task drains the
/// [`MailboxCore`] directly.
#[derive(Clone)]
pub(crate) struct MailboxSender {
    core: Arc<MailboxCore>,
}

impl MailboxSender {
    /// Deliver an envelope, and enqueue the task if this push woke it: a
    /// `Delivered` answer carries no wake, so discarding it strands nobody.
    /// `Rejected` must still be resolved by the caller.
    pub(crate) fn send(&self, envelope: Envelope) -> Pushed {
        match self.core.push(envelope) {
            Pushed::Delivered(Some(woken)) => {
                woken.enqueue();
                Pushed::Delivered(None)
            }
            pushed => pushed,
        }
    }

    /// As [`send`](Self::send), but a wake the push won comes back
    /// un-enqueued, the sender's to spend: a call runs it
    /// ([`Woken::run_as_call`]), the kernel's dispatch of a plain send
    /// enqueues it.
    pub(crate) fn send_calling(&self, envelope: Envelope) -> Pushed {
        self.core.push(envelope)
    }

    /// How many envelopes are queued right now (the obs plane's
    /// queue-depth gauges read this through the kernel registry).
    pub(crate) fn depth(&self) -> usize {
        self.core.mailq.lock().q.len()
    }
}

impl std::fmt::Debug for MailboxSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailboxSender").finish_non_exhaustive()
    }
}

/// Create a mailbox, returning the sender and the shared core. `bound`
/// caps the invocations a full ring admits (`None`: unbounded).
pub(crate) fn mailbox(bound: Option<usize>) -> (MailboxSender, Arc<MailboxCore>) {
    let core = MailboxCore::new(bound);
    (
        MailboxSender {
            core: Arc::clone(&core),
        },
        core,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Attach a core to nobody, without a live scheduler: the wake
    /// CAS loop runs for real, the upgrade finds nobody to enqueue.
    fn sched_mode(core: &MailboxCore) {
        let _ = core.wake.set(Weak::new());
    }

    /// A push with no live task to wake lands and wins nothing to spend.
    fn delivered(pushed: Pushed) {
        assert!(matches!(pushed, Pushed::Delivered(None)));
    }

    #[test]
    fn deliver_to_parked_queues() {
        let (tx, core) = mailbox(None);
        sched_mode(&core);
        assert_eq!(core.park_state.load(Ordering::Acquire), park::PARKED);
        delivered(tx.send(Envelope::Shutdown));
        assert_eq!(core.park_state.load(Ordering::Acquire), park::QUEUED);
        // A second delivery finds QUEUED and leaves it alone.
        delivered(tx.send(Envelope::Shutdown));
        assert_eq!(core.park_state.load(Ordering::Acquire), park::QUEUED);
    }

    #[test]
    fn deliver_to_running_marks_dirty() {
        let (tx, core) = mailbox(None);
        sched_mode(&core);
        core.park_state.store(park::RUNNING, Ordering::Release);
        delivered(tx.send(Envelope::Shutdown));
        assert_eq!(core.park_state.load(Ordering::Acquire), park::DIRTY);
        // Further deliveries leave DIRTY as-is.
        delivered(tx.send(Envelope::Shutdown));
        assert_eq!(core.park_state.load(Ordering::Acquire), park::DIRTY);
    }

    #[test]
    fn deliver_to_dead_wakes_nobody() {
        let (tx, core) = mailbox(None);
        sched_mode(&core);
        core.park_state.store(park::DEAD, Ordering::Release);
        delivered(tx.send(Envelope::Shutdown));
        assert_eq!(core.park_state.load(Ordering::Acquire), park::DEAD);
    }

    /// Concurrent senders vs a draining worker: every observed transition
    /// must be one the spec table blesses, and no delivery may be lost
    /// (every push while PARKED flips the bit to QUEUED). Small enough to
    /// run under miri's interpreter.
    #[test]
    fn wake_protocol_transitions_follow_spec() {
        let iters = if cfg!(miri) { 20 } else { 400 };
        for _ in 0..iters {
            let (tx, core) = mailbox(None);
            sched_mode(&core);
            let worker = {
                let core = Arc::clone(&core);
                std::thread::spawn(move || {
                    let mut drained = 0usize;
                    loop {
                        // While we are not RUNNING the only states are
                        // PARKED (nothing delivered since the last park)
                        // and QUEUED (a sender woke us): spin for the
                        // latter, then pick up. Senders never touch a
                        // QUEUED bit, so the swap always sees QUEUED.
                        if core.park_state.load(Ordering::Acquire) == park::PARKED {
                            if drained >= 3 {
                                return drained;
                            }
                            std::thread::yield_now();
                            continue;
                        }
                        let prev = core.park_state.swap(park::RUNNING, Ordering::AcqRel);
                        spec::assert_transition(prev, park::RUNNING);
                        // One resume, shaped like `Scheduler::resume`: drain,
                        // try to park, and after a dirty reclaim drain and
                        // try again — still RUNNING, so without a second
                        // pickup.
                        loop {
                            while core.pop(&mut false).is_some() {
                                drained += 1;
                            }
                            match core.park_state.compare_exchange(
                                park::RUNNING,
                                park::PARKED,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => break,
                                Err(seen) => {
                                    spec::assert_transition(park::RUNNING, seen);
                                    let dirty =
                                        core.park_state.swap(park::RUNNING, Ordering::AcqRel);
                                    spec::assert_transition(dirty, park::RUNNING);
                                }
                            }
                        }
                        if drained >= 3 {
                            return drained;
                        }
                    }
                })
            };
            let senders: Vec<_> = (0..3)
                .map(|_| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        delivered(tx.send(Envelope::Shutdown));
                    })
                })
                .collect();
            for s in senders {
                s.join().unwrap();
            }
            let drained = worker.join().unwrap();
            assert_eq!(drained, 3, "every delivery must be drained");
        }
    }

    #[test]
    fn spec_table_is_a_connected_machine() {
        // Every non-DEAD state has at least one outgoing edge, QUEUED is
        // reachable from PARKED, and no edge is self-looping.
        for s in [park::PARKED, park::QUEUED, park::RUNNING, park::DIRTY] {
            assert!(
                spec::TRANSITIONS.iter().any(|t| t.from == s),
                "state {} has no outgoing edge",
                spec::state_name(s)
            );
        }
        assert!(spec::allows(park::PARKED, park::QUEUED));
        assert!(spec::TRANSITIONS.iter().all(|t| t.from != t.to));
        assert!(!spec::allows(park::DEAD, park::RUNNING));
        assert!(!spec::allows(park::PARKED, park::RUNNING));
        assert_eq!(spec::state_by_name("DIRTY"), Some(park::DIRTY));
        assert!(spec::state_by_name("LIMBO").is_none());
        assert!(spec::allows_op(park::RUNNING, park::PARKED, spec::Op::Cas));
        assert!(!spec::allows_op(
            park::RUNNING,
            park::PARKED,
            spec::Op::Store
        ));
    }

    #[test]
    #[should_panic(expected = "illegal parking-bit transition")]
    fn illegal_transition_panics() {
        spec::assert_transition(park::DEAD, park::QUEUED);
    }

    use crate::invocation::{reply_cell, reply_pair_with, Invocation, PendingReply};
    use eden_core::{Uid, Value};

    /// An invocation envelope, plus the pending reply to observe what
    /// admission control did with it.
    fn inv_envelope() -> (Envelope, PendingReply) {
        let (handle, pending) =
            reply_pair_with(reply_cell(Uid::fresh(), &Arc::default(), false), None);
        (
            Envelope::Invocation(
                Invocation {
                    op: "Transfer".into(),
                    arg: Value::Unit,
                },
                handle,
            ),
            pending,
        )
    }

    #[test]
    fn a_full_mailbox_turns_the_arrival_away() {
        let (tx, _core) = mailbox(Some(1));
        let (first, _p1) = inv_envelope();
        delivered(tx.send(first));
        let (second, _p2) = inv_envelope();
        match tx.send(second) {
            Pushed::Rejected(Envelope::Invocation(..)) => {}
            _ => panic!("a full mailbox must turn the arriving invocation away"),
        }
        assert_eq!(tx.depth(), 1, "the queued envelope stays put");
    }

    #[test]
    fn the_bound_counts_invocations_only() {
        // Internal events are stream data and control traffic must land:
        // a full ring takes all three at once, and nobody waits for room.
        let (tx, _core) = mailbox(Some(1));
        let (first, _p1) = inv_envelope();
        delivered(tx.send(first));
        let control = [
            Envelope::Internal(Value::Int(1)),
            Envelope::Crash,
            Envelope::Shutdown,
        ];
        for envelope in control {
            delivered(tx.send(envelope));
        }
        assert_eq!(tx.depth(), 4);
    }

    #[test]
    fn a_closed_mailbox_hands_the_envelope_back() {
        let (tx, core) = mailbox(Some(1));
        assert!(core.close().is_empty());
        let (invocation, pending) = inv_envelope();
        match tx.send_calling(invocation) {
            Pushed::Closed(Envelope::Invocation(inv, _)) => assert_eq!(inv.op, "Transfer"),
            _ => panic!("a closed mailbox must hand the invocation back"),
        }
        assert!(matches!(
            tx.send(Envelope::Internal(Value::Int(7))),
            Pushed::Closed(Envelope::Internal(Value::Int(7)))
        ));
        assert_eq!(tx.depth(), 0);
        // The handed-back handle was dropped unanswered: a crash, not a shed.
        assert!(matches!(
            pending.wait(),
            Err(eden_core::EdenError::EjectCrashed(_))
        ));
    }

    /// Pop the next envelope as an `Internal` event's integer, and the flag.
    fn pop_int(core: &MailboxCore) -> (Option<i64>, bool) {
        // Preset: a pop must write the flag, not leave it.
        let mut emptied = true;
        let popped = core.pop(&mut emptied).map(|envelope| match envelope {
            Envelope::Internal(Value::Int(n)) => n,
            _ => panic!("only internal events were sent"),
        });
        (popped, emptied)
    }

    #[test]
    fn pop_says_emptied_exactly_on_the_pop_that_takes_the_last() {
        let (tx, core) = mailbox(None);
        let send = |n| delivered(tx.send(Envelope::Internal(Value::Int(n))));
        assert_eq!(
            pop_int(&core),
            (None, false),
            "an empty ring emptied nothing"
        );
        send(1);
        send(2);
        assert_eq!(pop_int(&core), (Some(1), false));
        assert_eq!(pop_int(&core), (Some(2), true));
        assert_eq!(pop_int(&core), (None, false));
        // An envelope put back is the ring's last again.
        send(3);
        assert_eq!(pop_int(&core), (Some(3), true));
        core.unpop(Envelope::Internal(Value::Int(3)));
        assert_eq!(pop_int(&core), (Some(3), true));
        // Put back in front of one that landed meanwhile, it is not.
        send(4);
        assert_eq!(pop_int(&core), (Some(4), true));
        send(5);
        core.unpop(Envelope::Internal(Value::Int(4)));
        assert_eq!(pop_int(&core), (Some(4), false));
        assert_eq!(pop_int(&core), (Some(5), true));
    }
}
