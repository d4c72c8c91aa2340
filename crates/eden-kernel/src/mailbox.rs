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
//! A bounded mailbox (`bound: Some((n, policy))`) runs its [`ShedPolicy`]
//! when a plain `send` arrives at a full ring. The historic behaviour
//! ([`ShedPolicy::Park`]) parks the sender on the `not_full` condvar —
//! which under excess offered load turns backpressure into a distributed
//! standoff: a scheduler worker parked behind a full mailbox whose
//! consumer is itself parked behind another full mailbox never makes
//! progress, and the stall monitor cannot help because every worker is
//! *legitimately* blocked. Two escapes exist:
//!
//! * a deadline-bearing invocation ([`InvokeOptions::deadline`]) bounds
//!   its park by the deadline and sheds itself when it expires, so an
//!   `invoke_with` caller can never be wedged forever; and
//! * [`ShedPolicy::RejectNewest`] never parks at all — it turns the
//!   arriving invocation away, and the kernel resolves its reply with the
//!   retryable `EdenError::Overloaded`, composing with `invoke_with`
//!   retry/backoff as client-side rate control. What is queued stays
//!   queued: nothing admitted is ever evicted.
//!
//! Only `Envelope::Invocation` traffic is ever shed: intra-Eject
//! `Internal` events are stream data whose loss would break exactly-once
//! accounting, so they always use the parking discipline, and kernel
//! control traffic (`force_send`) bypasses the bound entirely. A send
//! still fails with the envelope returned once the mailbox closed — the
//! staleness signal cached routes rely on.
//!
//! [`InvokeOptions::deadline`]: crate::InvokeOptions::deadline

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::runtime::Envelope;
use crate::sched::{Task, Woken};

/// What a bounded mailbox does when a plain `send` arrives at a full ring.
/// Configured kernel-wide, always together with the bound, through
/// [`KernelBuilder::bounded_mailboxes`](crate::KernelBuilder::bounded_mailboxes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Park the sender until the consumer drains — the historic
    /// flow-control behaviour. Deadline-bearing invocations bound the park
    /// by their deadline and shed themselves when it expires; deadline-free
    /// sends park indefinitely.
    Park,
    /// Turn the arriving invocation away: the queue keeps what it has, the
    /// newcomer resolves with [`EdenError::Overloaded`](eden_core::EdenError).
    RejectNewest,
}

/// Why admission control shed one envelope: `Park` sheds only on deadline
/// expiry, `RejectNewest` only the arrival at a full ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShedCause {
    /// The arriving invocation was turned away at a full ring.
    Newest,
    /// A parked sender's deadline-bounded wait for space timed out.
    ParkTimeout,
}

impl ShedCause {
    /// The policy label reported in `EdenError::Overloaded` for this shed.
    pub(crate) fn policy_label(&self) -> &'static str {
        match self {
            ShedCause::Newest => "reject-newest",
            ShedCause::ParkTimeout => "park-timeout",
        }
    }
}

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

/// One admission decision at a full bounded ring.
enum Admit {
    /// Re-run the capacity check (the sender parked and woke). Carries the
    /// envelope back to the retry.
    Retry(Envelope),
    /// The arriving envelope was shed with this cause.
    Shed(Envelope, ShedCause),
}

/// What a successful `send` actually did. A rejected envelope carries a
/// live [`ReplyHandle`](crate::ReplyHandle) the caller must resolve (the
/// kernel resolves sheds with `EdenError::Overloaded` and counts them) —
/// dropping one would misreport the shed as a crash.
pub(crate) enum SendOutcome {
    /// Admitted.
    Delivered,
    /// The arriving envelope was shed and comes back to the caller.
    Rejected(Envelope, ShedCause),
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
    /// Bounded mode: wakes senders parked on a full ring.
    not_full: Condvar,
    /// `Some((n, policy))` bounds the ring to `n` envelopes for plain
    /// `send`, and says what a full ring does to arriving invocations.
    bound: Option<(usize, ShedPolicy)>,
    /// The parking bit (see [`park`]).
    park_state: AtomicU8,
    /// Whom a delivery wakes; set once, when the task is created. Weak: a
    /// parked task is kept alive by its registry slot, never by its own
    /// mailbox (which the task itself owns). The task holds its scheduler.
    wake: OnceLock<Weak<Task>>,
}

impl MailboxCore {
    fn new(bound: Option<(usize, ShedPolicy)>) -> Arc<MailboxCore> {
        Arc::new(MailboxCore {
            mailq: Mutex::new(Ring {
                q: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::default(),
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
    fn push(
        &self,
        envelope: Envelope,
        respect_bound: bool,
    ) -> Result<(SendOutcome, Option<Woken>), SendError> {
        {
            let mut ring = self.mailq.lock();
            let mut envelope = envelope;
            loop {
                if ring.closed {
                    drop(ring);
                    return Err(SendError(envelope));
                }
                if respect_bound {
                    if let Some((cap, policy)) = self.bound {
                        if ring.q.len() >= cap {
                            match self.admit(&mut ring, envelope, policy) {
                                Admit::Retry(env) => {
                                    envelope = env;
                                    continue;
                                }
                                Admit::Shed(env, cause) => {
                                    drop(ring);
                                    return Ok((SendOutcome::Rejected(env, cause), None));
                                }
                            }
                        }
                    }
                }
                ring.q.push_back(envelope);
                break;
            }
        }
        Ok((SendOutcome::Delivered, self.wake_after_push()))
    }

    /// [`push`](Self::push) for a sender that will not run anybody itself.
    fn deliver(&self, envelope: Envelope, respect_bound: bool) -> Result<SendOutcome, SendError> {
        let (outcome, woken) = self.push(envelope, respect_bound)?;
        if let Some(woken) = woken {
            woken.enqueue();
        }
        Ok(outcome)
    }

    /// One admission decision at a full ring, under the ring lock. Either
    /// tells the caller to re-check (space may have freed), or sheds the
    /// arriving envelope.
    fn admit(
        &self,
        ring: &mut parking_lot::MutexGuard<'_, Ring>,
        envelope: Envelope,
        policy: ShedPolicy,
    ) -> Admit {
        // Only invocations are ever shed: Internal events are stream data
        // (shedding them would silently lose records), so they keep the
        // historic parking discipline whatever the policy says.
        let sheddable = matches!(envelope, Envelope::Invocation(..));
        if sheddable && policy == ShedPolicy::RejectNewest {
            return Admit::Shed(envelope, ShedCause::Newest);
        }
        match envelope.admit_by() {
            // Deadline-aware park: bound the wait by the invocation's
            // own deadline, shedding once it expires — a sender under
            // `invoke_with` deadlines can never be wedged forever
            // behind a full mailbox.
            Some(admit_by) => {
                let now = Instant::now();
                if now >= admit_by {
                    return Admit::Shed(envelope, ShedCause::ParkTimeout);
                }
                crate::sched::blocking(|| {
                    self.not_full.wait_for(ring, admit_by - now);
                });
                Admit::Retry(envelope)
            }
            // Backpressure: park this sender until the receiver
            // drains. Kernel control traffic (`force_send`) never
            // reaches here, so teardown cannot wedge.
            None => {
                crate::sched::blocking(|| {
                    self.not_full.wait(ring);
                });
                Admit::Retry(envelope)
            }
        }
    }

    /// Pop one envelope, and say whether it was the last one queued. Shrinks
    /// an oversized ring on drain.
    pub(crate) fn pop(&self) -> Option<(Envelope, bool)> {
        let mut ring = self.mailq.lock();
        let envelope = ring.q.pop_front()?;
        let last = ring.q.is_empty();
        if last && ring.q.capacity() >= SHRINK_CAPACITY {
            ring.q = VecDeque::new();
        }
        drop(ring);
        if self.bound.is_some() {
            self.not_full.notify_one();
        }
        Some((envelope, last))
    }

    /// Put back the envelope [`pop`](Self::pop) just handed out, at the
    /// front, for the task's next resume. Only the task's own runner calls
    /// this, and only it closes the mailbox, so the ring is still open; a
    /// bounded ring whose freed place a parked sender took meanwhile holds
    /// one envelope over its capacity until the next pop.
    pub(crate) fn unpop(&self, envelope: Envelope) {
        self.mailq.lock().q.push_front(envelope);
    }

    /// Close the mailbox and return everything still queued. Dropping the
    /// returned envelopes resolves their replies with `EjectCrashed` —
    /// the fail-fast the old drain loop provided. Atomic under the ring
    /// mutex: no envelope can land between the drain and the close.
    pub(crate) fn close(&self) -> VecDeque<Envelope> {
        let drained = {
            let mut ring = self.mailq.lock();
            ring.closed = true;
            std::mem::take(&mut ring.q)
        };
        // Senders parked on a full ring must observe the close and fail.
        self.not_full.notify_all();
        drained
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

/// `send` failed because the mailbox closed; the envelope comes back so
/// the caller can redeliver it (the stale-route fallback).
pub(crate) struct SendError(pub(crate) Envelope);

impl std::fmt::Debug for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// The sending half of a mailbox; its owning task drains the
/// [`MailboxCore`] directly.
#[derive(Clone)]
pub(crate) struct MailboxSender {
    core: Arc<MailboxCore>,
}

impl MailboxSender {
    /// Deliver an envelope, respecting a bounded mailbox's capacity and
    /// its [`ShedPolicy`] (under `Park`, the sender parks until space
    /// frees or its deadline expires). `Err` only once the mailbox closed;
    /// `Ok` carries what admission control did, including any shed
    /// envelopes the caller must resolve.
    pub(crate) fn send(&self, envelope: Envelope) -> Result<SendOutcome, SendError> {
        self.core.deliver(envelope, true)
    }

    /// As [`send`](Self::send), for a sender that is about to wait for the
    /// reply: a wake its push won comes back un-enqueued, the sender's to
    /// spend ([`Woken::run_as_call`]).
    pub(crate) fn send_calling(
        &self,
        envelope: Envelope,
    ) -> Result<(SendOutcome, Option<Woken>), SendError> {
        self.core.push(envelope, true)
    }

    /// Deliver an envelope past any capacity bound. Kernel control
    /// messages (crash, shutdown) use this so a full mailbox can never
    /// wedge teardown.
    pub(crate) fn force_send(&self, envelope: Envelope) -> Result<(), SendError> {
        self.core.deliver(envelope, false).map(|_| ())
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
/// caps plain sends and says what a full ring does to arriving invocations
/// (`None` keeps the historic unbounded behaviour).
pub(crate) fn mailbox(bound: Option<(usize, ShedPolicy)>) -> (MailboxSender, Arc<MailboxCore>) {
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

    #[test]
    fn deliver_to_parked_queues() {
        let (tx, core) = mailbox(None);
        sched_mode(&core);
        assert_eq!(core.park_state.load(Ordering::Acquire), park::PARKED);
        tx.send(Envelope::Shutdown).unwrap();
        assert_eq!(core.park_state.load(Ordering::Acquire), park::QUEUED);
        // A second delivery finds QUEUED and leaves it alone.
        tx.send(Envelope::Shutdown).unwrap();
        assert_eq!(core.park_state.load(Ordering::Acquire), park::QUEUED);
    }

    #[test]
    fn deliver_to_running_marks_dirty() {
        let (tx, core) = mailbox(None);
        sched_mode(&core);
        core.park_state.store(park::RUNNING, Ordering::Release);
        tx.send(Envelope::Shutdown).unwrap();
        assert_eq!(core.park_state.load(Ordering::Acquire), park::DIRTY);
        // Further deliveries leave DIRTY as-is.
        tx.send(Envelope::Shutdown).unwrap();
        assert_eq!(core.park_state.load(Ordering::Acquire), park::DIRTY);
    }

    #[test]
    fn deliver_to_dead_wakes_nobody() {
        let (tx, core) = mailbox(None);
        sched_mode(&core);
        core.park_state.store(park::DEAD, Ordering::Release);
        tx.send(Envelope::Shutdown).unwrap();
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
                            while core.pop().is_some() {
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
                        tx.send(Envelope::Shutdown).unwrap();
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
    use std::time::Duration;

    /// An invocation envelope with an optional admission deadline, plus the
    /// pending reply to observe what admission control did with it.
    fn inv_envelope(deadline: Option<Duration>) -> (Envelope, PendingReply) {
        let admit_by = deadline.map(|d| Instant::now() + d);
        let (handle, pending) = reply_pair_with(
            reply_cell(Uid::fresh(), &Arc::default(), false, admit_by),
            None,
        );
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
    fn reject_newest_sheds_the_arrival() {
        let (tx, _core) = mailbox(Some((1, ShedPolicy::RejectNewest)));
        let (first, _p1) = inv_envelope(None);
        assert!(matches!(tx.send(first), Ok(SendOutcome::Delivered)));
        let (second, _p2) = inv_envelope(None);
        match tx.send(second) {
            Ok(SendOutcome::Rejected(Envelope::Invocation(..), ShedCause::Newest)) => {}
            _ => panic!("full RejectNewest mailbox must shed the arrival"),
        }
        assert_eq!(tx.depth(), 1, "the queued envelope stays put");
    }

    #[test]
    fn reject_newest_never_sheds_internal_events() {
        // Internal events are stream data: a full RejectNewest mailbox must
        // park the sender, not drop them. Prove it by having a consumer
        // free space while the sender is parked.
        let (tx, core) = mailbox(Some((1, ShedPolicy::RejectNewest)));
        tx.send(Envelope::Internal(Value::Int(1))).unwrap();
        let drainer = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                core.pop()
            })
        };
        // Blocks until the drainer pops, then delivers.
        match tx.send(Envelope::Internal(Value::Int(2))).unwrap() {
            SendOutcome::Delivered => {}
            _ => panic!("internal events must never be shed"),
        }
        assert!(drainer.join().unwrap().is_some());
        assert_eq!(tx.depth(), 1);
    }

    #[test]
    fn park_with_deadline_sheds_on_timeout() {
        // The park-forever bug: a bounded Park mailbox with no consumer
        // used to wedge the sender indefinitely. With an admission deadline
        // the sender now bounds its wait and sheds as ParkTimeout.
        let (tx, _core) = mailbox(Some((1, ShedPolicy::Park)));
        let (first, _p1) = inv_envelope(None);
        tx.send(first).unwrap();
        let (second, _p2) = inv_envelope(Some(Duration::from_millis(30)));
        let start = Instant::now();
        match tx.send(second) {
            Ok(SendOutcome::Rejected(_, ShedCause::ParkTimeout)) => {}
            _ => panic!("a deadlined send at a full Park mailbox must time out"),
        }
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(25),
            "must actually wait out the deadline, waited {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "must not park forever, waited {waited:?}"
        );
    }

    #[test]
    fn park_without_deadline_waits_for_space() {
        let (tx, core) = mailbox(Some((1, ShedPolicy::Park)));
        let (first, _p1) = inv_envelope(None);
        tx.send(first).unwrap();
        let drainer = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                core.pop()
            })
        };
        let (second, _p2) = inv_envelope(None);
        match tx.send(second).unwrap() {
            SendOutcome::Delivered => {}
            _ => panic!("plain Park must deliver once space frees"),
        }
        assert!(drainer.join().unwrap().is_some());
    }

    #[test]
    fn force_send_bypasses_the_bound() {
        let (tx, _core) = mailbox(Some((1, ShedPolicy::RejectNewest)));
        let (first, _p1) = inv_envelope(None);
        tx.send(first).unwrap();
        // Kernel control traffic must never be turned away.
        tx.force_send(Envelope::Crash).unwrap();
        assert_eq!(tx.depth(), 2);
    }

    #[test]
    fn shed_labels_are_stable() {
        assert_eq!(ShedCause::Newest.policy_label(), "reject-newest");
        assert_eq!(ShedCause::ParkTimeout.policy_label(), "park-timeout");
    }
}
