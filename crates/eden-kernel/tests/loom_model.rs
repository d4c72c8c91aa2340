//! Interleaving models for the invocation plane, compiled only under
//! `RUSTFLAGS="--cfg loom"` (see `vendor/loom` for what `model` means in
//! this offline build).
//!
//! These tests do not drive the real [`Kernel`]: loom-style checking
//! works on a distilled copy of the algorithm whose state space is small
//! enough to explore. The distilled object here is the one-shot reply
//! cell behind `PendingReply::Waiting` (`crates/eden-kernel/src/
//! invocation.rs`): the same state word (`EMPTY -> WAITING -> SETTLED`,
//! or `ABANDONED`), the same swap/CAS orderings, and the two plain slots
//! it hands between the halves modelled as `Relaxed` atomics, so a missing
//! happens-before edge shows as a stale read. Its contract:
//!
//! 1. the waiter observes exactly one outcome — the reply, a crash
//!    (settling half dropped unanswered) or its own deadline — never two,
//!    never none;
//! 2. no wake-up is lost: a settle that replaces `WAITING` finds the
//!    waiter's handle and unparks it, one that replaces `EMPTY` needs to
//!    wake nobody because the waiter will look before it sleeps;
//! 3. a reply landing after the waiter deregistered on its deadline wakes
//!    nobody and is never delivered to that wait;
//! 4. (`options.rs`, on top of the cell) no re-send is issued once expiry
//!    has been observed, and the attempt count never exceeds the policy
//!    budget.
#![cfg(loom)]

use loom::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU8, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

/// The distilled reply cell.
mod rc {
    use super::*;

    pub const EMPTY: u8 = 0;
    pub const WAITING: u8 = 1;
    pub const SETTLED: u8 = 2;
    pub const ABANDONED: u8 = 3;

    /// What one wait came back with.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Outcome {
        Replied(u32),
        Crashed,
        TimedOut,
    }

    /// `std::thread::park`/`unpark`: a one-token latch. An unpark that
    /// wins the race with the park leaves the token behind.
    struct Token {
        set: Mutex<bool>,
        cv: Condvar,
    }

    pub struct Cell {
        state: AtomicU8,
        /// The value slot (0 = nothing written). Plain memory in the real
        /// cell, hence `Relaxed` here.
        value: AtomicU32,
        /// The waiter's thread handle (0 = none published). Plain memory
        /// in the real cell, hence `Relaxed` here.
        handle: AtomicUsize,
        token: Token,
        /// Unparks the settling half issued.
        pub wakes: AtomicU32,
    }

    /// The waiter's published handle.
    const WAITER: usize = 1;

    impl Cell {
        pub fn new() -> Cell {
            Cell {
                state: AtomicU8::new(EMPTY),
                value: AtomicU32::new(0),
                handle: AtomicUsize::new(0),
                token: Token {
                    set: Mutex::new(false),
                    cv: Condvar::new(),
                },
                wakes: AtomicU32::new(0),
            }
        }

        fn unpark(&self) {
            *self.token.set.lock().unwrap() = true;
            self.token.cv.notify_one();
        }

        fn park(&self) {
            let mut set = self.token.set.lock().unwrap();
            while !*set {
                set = self.token.cv.wait(set).unwrap();
            }
            *set = false;
        }

        /// Settling half: `Some` replies, `None` is the half being dropped
        /// unanswered. Returns whether a sleeping waiter was woken.
        pub fn finish(&self, reply: Option<u32>) -> bool {
            let terminal = match reply {
                Some(v) => {
                    self.value.store(v, Ordering::Relaxed);
                    SETTLED
                }
                None => ABANDONED,
            };
            if self.state.swap(terminal, Ordering::AcqRel) != WAITING {
                return false;
            }
            // The swap's Acquire must make the waiter's handle visible.
            assert_eq!(self.handle.swap(0, Ordering::Relaxed), WAITER, "handle not published");
            self.wakes.fetch_add(1, Ordering::SeqCst);
            self.unpark();
            true
        }

        pub fn state(&self) -> u8 {
            self.state.load(Ordering::Acquire)
        }

        /// Awaiting half: the outcome if it is known.
        pub fn try_take(&self) -> Option<Outcome> {
            match self.state.load(Ordering::Acquire) {
                SETTLED => {
                    // The Acquire above must make the value visible.
                    let v = self.value.load(Ordering::Relaxed);
                    assert_ne!(v, 0, "SETTLED observed before the value");
                    Some(Outcome::Replied(v))
                }
                ABANDONED => Some(Outcome::Crashed),
                _ => None,
            }
        }

        /// Awaiting half: publish the handle, then `EMPTY -> WAITING`.
        pub fn register(&self) -> bool {
            self.handle.store(WAITER, Ordering::Relaxed);
            self.state
                .compare_exchange(EMPTY, WAITING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        }

        /// Awaiting half, on its deadline: `WAITING -> EMPTY`. Losing
        /// means the outcome is in.
        pub fn deregister(&self) -> bool {
            self.state
                .compare_exchange(WAITING, EMPTY, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        }

        /// The timer behind `park_timeout`: the deadline passes and the
        /// sleeping waiter comes back on its own.
        pub fn deadline_passes(&self, expired: &AtomicBool) {
            expired.store(true, Ordering::SeqCst);
            self.unpark();
        }

        /// `Awaiter::wait_for`, with the clock as a flag.
        pub fn wait(&self, expired: &AtomicBool) -> Outcome {
            if let Some(outcome) = self.try_take() {
                return outcome;
            }
            if !self.register() {
                return self.try_take().expect("registration lost to a terminal state");
            }
            while self.state() < SETTLED && !expired.load(Ordering::SeqCst) {
                self.park();
            }
            if self.deregister() {
                Outcome::TimedOut
            } else {
                self.try_take().expect("deregistration lost to a terminal state")
            }
        }
    }
}

use rc::Outcome;

/// Settle, register-waiter and timeout all racing: the wait comes back
/// with exactly one outcome, a reply that lost to the deadline is still in
/// the cell (late, not lost) but was never handed to that wait, and the
/// settling half woke the waiter at most once — only if it found it asleep.
#[test]
fn reply_cell_settle_register_and_timeout_race_to_one_outcome() {
    loom::model(|| {
        let cell = Arc::new(rc::Cell::new());
        let expired = Arc::new(AtomicBool::new(false));

        let settler = {
            let cell = cell.clone();
            thread::spawn(move || cell.finish(Some(7)))
        };
        let clock = {
            let (cell, expired) = (cell.clone(), expired.clone());
            thread::spawn(move || cell.deadline_passes(&expired))
        };

        let outcome = cell.wait(&expired);
        let woke = settler.join().unwrap();
        clock.join().unwrap();

        match outcome {
            Outcome::Replied(v) => assert_eq!(v, 7),
            Outcome::TimedOut => {
                // The wait deregistered first, so the settle replaced
                // `EMPTY` and woke nobody.
                assert!(!woke, "a wait that timed out was also woken with the reply");
            }
            Outcome::Crashed => panic!("nobody dropped the settling half"),
        }
        assert_eq!(cell.state(), rc::SETTLED);
        assert_eq!(cell.wakes.load(Ordering::SeqCst), u32::from(woke));
    });
}

/// No deadline at all: if the settle could slip between the waiter's last
/// look and its sleep, this model would hang. Dropping the settling half
/// unanswered is a settle like any other and reads as a crash.
#[test]
fn reply_cell_loses_no_wakeup_and_drop_reads_as_crash() {
    loom::model(|| {
        for reply in [Some(5), None] {
            let cell = Arc::new(rc::Cell::new());
            let never = AtomicBool::new(false);
            let settler = {
                let cell = cell.clone();
                thread::spawn(move || cell.finish(reply))
            };
            let outcome = cell.wait(&never);
            settler.join().unwrap();
            assert_eq!(outcome, reply.map_or(Outcome::Crashed, Outcome::Replied));
        }
    });
}

#[test]
fn reply_and_deadline_race_yields_exactly_one_terminal() {
    loom::model(|| {
        // The waiter is registered and asleep; its deadline (the
        // deregistering CAS) races the responder's terminal swap.
        let cell = Arc::new(rc::Cell::new());
        assert!(cell.register());

        let responder = {
            let cell = cell.clone();
            thread::spawn(move || cell.finish(Some(7)))
        };
        let deadline = {
            let cell = cell.clone();
            thread::spawn(move || cell.deregister())
        };

        let replied = responder.join().unwrap();
        let expired = deadline.join().unwrap();

        // Exactly one side won the state word: either the deadline took
        // the cell back to EMPTY first (and the reply then woke nobody),
        // or the reply replaced WAITING (and the deadline's CAS failed).
        assert!(replied ^ expired, "both or neither terminal won");
        assert_eq!(cell.try_take(), Some(Outcome::Replied(7)));
        // A losing reply is discarded with the cell: no wake-up for it.
        assert_eq!(cell.wakes.load(Ordering::SeqCst), u32::from(replied));
    });
}

#[test]
fn late_reply_after_expiry_is_discarded_not_redelivered() {
    loom::model(|| {
        let cell = Arc::new(rc::Cell::new());
        assert!(cell.register());
        assert!(cell.deregister(), "nothing raced the deadline");

        let late = {
            let cell = cell.clone();
            thread::spawn(move || cell.finish(Some(9)))
        };
        // The wait already returned `TimedOut`; the late reply wakes
        // nobody and dies with the cell.
        assert!(!late.join().unwrap());
        assert_eq!(cell.wakes.load(Ordering::SeqCst), 0);
        assert_eq!(cell.state(), rc::SETTLED);
    });
}

#[test]
fn no_resend_after_expiry_and_attempts_stay_bounded() {
    const MAX_ATTEMPTS: usize = 3;
    /// A reply value standing for a retryable failure.
    const RETRYABLE: u32 = 1;
    const ANSWER: u32 = 2;
    loom::model(|| {
        // `RetryState` on top of the cell: every attempt is a fresh reply
        // pair, `sent` is how many the caller has issued.
        let cells: Arc<Vec<rc::Cell>> = Arc::new((0..MAX_ATTEMPTS).map(|_| rc::Cell::new()).collect());
        let sent = Arc::new(AtomicUsize::new(1));
        let expired = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));

        // The responder fails the first attempt retryably, then (if the
        // caller re-sends in time) answers the second for real.
        let responder = {
            let (cells, sent, done) = (cells.clone(), sent.clone(), done.clone());
            thread::spawn(move || {
                cells[0].finish(Some(RETRYABLE));
                while sent.load(Ordering::SeqCst) < 2 {
                    if done.load(Ordering::SeqCst) {
                        return;
                    }
                    thread::yield_now();
                }
                cells[1].finish(Some(ANSWER));
            })
        };
        let clock = {
            let (cells, expired) = (cells.clone(), expired.clone());
            thread::spawn(move || {
                // The timer wakes whichever attempt the caller sleeps on.
                for cell in cells.iter() {
                    cell.deadline_passes(&expired);
                }
            })
        };

        // Caller loop (`RetryState::wait_timeout`): wait; on a retryable
        // failure check the deadline, then re-send; stop on any terminal.
        let mut attempt = 0usize;
        let outcome = loop {
            match cells[attempt].wait(&expired) {
                Outcome::Replied(RETRYABLE) => {
                    if expired.load(Ordering::SeqCst) || attempt + 1 >= MAX_ATTEMPTS {
                        break Outcome::TimedOut;
                    }
                    attempt += 1;
                    sent.store(attempt + 1, Ordering::SeqCst);
                }
                terminal => break terminal,
            }
        };
        let sent_at_verdict = sent.load(Ordering::SeqCst);
        done.store(true, Ordering::SeqCst);
        responder.join().unwrap();
        clock.join().unwrap();

        assert!(attempt < MAX_ATTEMPTS, "attempt budget exceeded");
        assert_eq!(
            sent.load(Ordering::SeqCst),
            sent_at_verdict,
            "a re-send was issued after the verdict"
        );
        match outcome {
            Outcome::Replied(v) => assert_eq!(v, ANSWER),
            Outcome::TimedOut => {}
            Outcome::Crashed => panic!("nobody dropped a settling half"),
        }
    });
}

// ---------------------------------------------------------------------
// Park-vs-deliver: the mailbox parking bit behind the N-worker scheduler
// (`crates/eden-kernel/src/mailbox.rs::wake_after_push` /
// `sched.rs::resume`). The distilled contract:
//
// 1. every delivered message is eventually processed — a sender racing
//    the consumer's park transition can never strand mail behind a
//    PARKED bit with no run-queue entry (the lost-wakeup);
// 2. whenever a wake is spent — a run-queue entry claimed by a worker, or
//    the wake a calling sender's own push won, run by that sender — the
//    behaviour body is in its slot: the consumer publishes the body
//    *before* advertising PARKED, so a racing wake always finds something
//    to resume;
// 3. the bit ends PARKED with the mailbox and run queue both empty, and
//    mail was served in the order it was pushed;
// 4. every bit transition the model performs is an edge of
//    `mailbox::spec::TRANSITIONS` — the same declarative table
//    `eden-lint --protocol` checks the real code against. Stores learn
//    their from-state via `swap`, so an off-spec edge (a pickup from
//    PARKED, a reclaim from RUNNING) panics here instead of hiding.

use std::collections::VecDeque;

use eden_kernel::mailbox::park as pk;
use eden_kernel::mailbox::spec;

struct ParkModel {
    bit: loom::sync::atomic::AtomicU8,
    /// Pending mail (the ring, reduced to envelope ids) and, beside it,
    /// every id ever pushed, in push order.
    mailq: Mutex<(VecDeque<u32>, Vec<u32>)>,
    /// The behaviour body: present iff the task is parked or queued.
    body: Mutex<Option<()>>,
    /// Run-queue entries naming this task.
    runq: Mutex<u32>,
    /// Envelope ids in the order they were served.
    served: Mutex<Vec<u32>>,
    /// `PARKED -> QUEUED` edges taken, and `RUNNING -> PARKED` ones.
    wakes: AtomicU32,
    parks: AtomicU32,
}

impl ParkModel {
    fn new() -> Self {
        ParkModel {
            bit: loom::sync::atomic::AtomicU8::new(pk::PARKED),
            mailq: Mutex::new((VecDeque::new(), Vec::new())),
            body: Mutex::new(Some(())),
            runq: Mutex::new(0),
            served: Mutex::new(Vec::new()),
            wakes: AtomicU32::new(0),
            parks: AtomicU32::new(0),
        }
    }

    fn served(&self) -> usize {
        self.served.lock().unwrap().len()
    }

    /// `MailboxCore::push`: land the envelope, then run the wake protocol
    /// exactly as `wake_after_push` does. True if this push flipped
    /// `PARKED -> QUEUED` — the pusher then holds the wake, and owes the
    /// task a run.
    fn push(&self, id: u32) -> bool {
        {
            let mut ring = self.mailq.lock().unwrap();
            ring.0.push_back(id);
            ring.1.push(id);
        }
        loop {
            match self.bit.load(Ordering::Acquire) {
                pk::PARKED => {
                    if self
                        .bit
                        .compare_exchange(
                            pk::PARKED,
                            pk::QUEUED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        spec::assert_transition(pk::PARKED, pk::QUEUED);
                        self.wakes.fetch_add(1, Ordering::SeqCst);
                        return true;
                    }
                }
                pk::RUNNING => {
                    if self
                        .bit
                        .compare_exchange(
                            pk::RUNNING,
                            pk::DIRTY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        spec::assert_transition(pk::RUNNING, pk::DIRTY);
                        return false;
                    }
                }
                _ => return false, // QUEUED or DIRTY: someone else's wake covers us.
            }
        }
    }

    /// A plain send (`MailboxSender::send`): a wake won is enqueued at once.
    fn send(&self, id: u32) {
        if self.push(id) {
            *self.runq.lock().unwrap() += 1;
        }
    }

    /// Worker side: claim one run-queue entry and resume. Returns false
    /// when no entry was claimable.
    fn try_resume(&self) -> bool {
        {
            let mut q = self.runq.lock().unwrap();
            if *q == 0 {
                return false;
            }
            *q -= 1;
        }
        self.resume(None);
        true
    }

    /// Spend a wake: the pickup store, then drain exactly as
    /// `Scheduler::resume` orders its park attempt. An inline resume
    /// (`awaited`: the envelope whose service settles the caller's reply)
    /// ends as soon as that envelope has been served, requeueing FIFO
    /// whatever mail is behind it.
    fn resume(&self, awaited: Option<u32>) {
        let prev = self.bit.swap(pk::RUNNING, Ordering::AcqRel);
        spec::assert_transition(prev, pk::RUNNING);
        // Invariant 2: a spent wake always finds the body in place.
        let mut held = self
            .body
            .lock()
            .unwrap()
            .take()
            .expect("wake with no body: park published too early, or a wake spent twice");
        loop {
            let popped = self.mailq.lock().unwrap().0.pop_front();
            if let Some(id) = popped {
                let settled =
                    awaited.is_some_and(|mine| self.served.lock().unwrap().contains(&mine));
                if settled {
                    // `unpop` + `requeue`: state, body, then the queue.
                    self.mailq.lock().unwrap().0.push_front(id);
                    let prev = self.bit.swap(pk::QUEUED, Ordering::AcqRel);
                    spec::assert_transition(prev, pk::QUEUED);
                    *self.body.lock().unwrap() = Some(held);
                    *self.runq.lock().unwrap() += 1;
                    return;
                }
                self.served.lock().unwrap().push(id);
                continue;
            }
            // Publish the body BEFORE the CAS advertises PARKED; the
            // swapped order is the lost-wakeup this model exists to rule
            // out.
            *self.body.lock().unwrap() = Some(held);
            match self.bit.compare_exchange(
                pk::RUNNING,
                pk::PARKED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    spec::assert_transition(pk::RUNNING, pk::PARKED);
                    self.parks.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                Err(_) => {
                    // A sender dirtied us: reclaim the body and drain on.
                    let prev = self.bit.swap(pk::RUNNING, Ordering::AcqRel);
                    spec::assert_transition(prev, pk::RUNNING);
                    held = self.body.lock().unwrap().take().expect(
                        "body stolen while RUNNING: task leaked into a run queue",
                    );
                }
            }
        }
    }

    /// A pool worker: drains until `total` envelopes have been served. The
    /// spin bound converts a lost wakeup into a visible assertion instead
    /// of a hang.
    fn work_until_served(&self, total: usize) {
        let mut spins = 0u32;
        while self.served() < total {
            if !self.try_resume() {
                spins += 1;
                assert!(spins < 100_000, "mail stranded: wakeup lost");
                thread::yield_now();
            }
        }
    }

    /// Invariants 1 and 3, once every thread is done.
    fn assert_quiet(&self, total: usize) {
        // A sender whose wake lost the race to the worker's drain may
        // leave one stale run-queue entry (bit QUEUED, mailbox empty);
        // the real scheduler resumes it into an immediate re-park, so
        // the model does the same before judging quiescence.
        while self.try_resume() {}
        let ring = self.mailq.lock().unwrap();
        assert!(ring.0.is_empty(), "mail left in the ring: {:?}", ring.0);
        assert_eq!(ring.1.len(), total);
        assert_eq!(*self.served.lock().unwrap(), ring.1, "served out of push order");
        assert_eq!(*self.runq.lock().unwrap(), 0);
        assert_eq!(self.bit.load(Ordering::Acquire), pk::PARKED);
        assert!(self.body.lock().unwrap().is_some());
        // Every park was ended by exactly one wake: no two senders ever
        // won the same one.
        assert_eq!(
            self.wakes.load(Ordering::SeqCst),
            self.parks.load(Ordering::SeqCst)
        );
    }
}

#[test]
fn park_vs_deliver_loses_no_wakeups() {
    const SENDERS: u32 = 2;
    const PER_SENDER: u32 = 2;
    loom::model(|| {
        let model = Arc::new(ParkModel::new());

        let senders: Vec<_> = (0..SENDERS)
            .map(|sender| {
                let model = model.clone();
                thread::spawn(move || {
                    for i in 0..PER_SENDER {
                        model.send(sender * PER_SENDER + i);
                    }
                })
            })
            .collect();
        let worker = {
            let model = model.clone();
            thread::spawn(move || model.work_until_served((SENDERS * PER_SENDER) as usize))
        };

        for s in senders {
            s.join().unwrap();
        }
        worker.join().unwrap();
        model.assert_quiet((SENDERS * PER_SENDER) as usize);
    });
}

// ---------------------------------------------------------------------
// Call-vs-second-sender: the one election point (`mailbox.rs::push` hands
// the wake it won back to a calling sender, `sched.rs::Woken::run_as_call`
// spends it). A calling sender and a plain sender race on one PARKED
// mailbox while a pool worker stands by. On top of the contract above:
//
// 5. exactly one of the two wins the wake; the caller runs the task itself
//    only if it is the one — holding the wake is what makes its pickup the
//    same `QUEUED -> RUNNING` store a worker's is, with nobody else able to
//    take it;
// 6. the loser's envelope is not stranded: ahead of the caller's in the
//    ring it is served by the inline resume, behind it it goes back to the
//    front and the task is requeued for the worker;
// 7. a caller that lost the wake runs nothing and is served by whoever
//    holds it.

/// `elects_anyway` seeds the bug: the caller runs the task inline whether
/// or not its push won the wake. `in_turn` takes the race out: the plain
/// send is over (its wake queued) before the caller pushes, and the worker
/// starts only once the caller is done — the one order in which the caller
/// cannot have won, whatever the host's scheduler feels like.
fn call_vs_second_sender_model(elects_anyway: bool, in_turn: bool) {
    const CALL: u32 = 1;
    const PLAIN: u32 = 2;
    fn started<T>(in_turn: bool, handle: thread::JoinHandle<T>) -> Option<thread::JoinHandle<T>> {
        if in_turn {
            handle.join().unwrap();
            return None;
        }
        Some(handle)
    }
    loom::model(move || {
        let model = Arc::new(ParkModel::new());

        let sender = {
            let model = model.clone();
            started(in_turn, thread::spawn(move || model.send(PLAIN)))
        };
        let caller = {
            let model = model.clone();
            let spawned = thread::spawn(move || {
                if model.push(CALL) || elects_anyway {
                    model.resume(Some(CALL));
                }
            });
            started(in_turn, spawned)
        };
        let worker = {
            let model = model.clone();
            thread::spawn(move || model.work_until_served(2))
        };

        for racing in [sender, caller].into_iter().flatten() {
            racing.join().unwrap();
        }
        worker.join().unwrap();
        model.assert_quiet(2);
    });
}

#[test]
fn call_vs_second_sender() {
    call_vs_second_sender_model(false, false);
    call_vs_second_sender_model(false, true);
}

/// The seeded bug must be found, every time: a task run by a sender that
/// holds no wake has been run on a wake somebody else still holds, and the
/// worker that spends that one finds the bit where no wake leaves it.
#[test]
#[should_panic(expected = "illegal parking-bit transition PARKED -> RUNNING")]
fn call_vs_second_sender_catches_an_election_without_the_wake() {
    call_vs_second_sender_model(true, true);
}

// ---------------------------------------------------------------------
// Dispatch fast path: the two lock-free structures the N-worker
// scheduler now runs on (`crates/eden-kernel/src/deque.rs` /
// `sched.rs::LifoSlot`). Neither can be driven through the real
// `Scheduler` under loom — the distilled copies below preserve exactly
// the orderings the real code uses, shrunk to a checkable state space.
//
// The vendored loom exposes no `AtomicIsize`, so the deque model keeps
// `top`/`bottom` in `AtomicUsize` starting from a base offset large
// enough that the owner's transient `bottom - 1` during `pop` never
// wraps. Indices are monotonic in the real deque too; only the
// representation differs.

/// Distilled Chase–Lev deque: same field roles, same fences, same
/// last-element CAS as `WorkDeque`. Cells hold plain task ids instead
/// of `Arc` pointers (no `AtomicPtr` in the shim) — ownership transfer
/// is modelled by the claim ledger in the test.
mod dq {
    use loom::sync::atomic::{fence, AtomicUsize, Ordering};

    pub const CAP: usize = 4;
    /// Start offset for `top`/`bottom`: keeps `bottom - 1` meaningful
    /// even when the owner probes an empty deque.
    pub const BASE: usize = 8;

    pub struct DequeModel {
        top: AtomicUsize,
        bottom: AtomicUsize,
        cells: [AtomicUsize; CAP],
    }

    impl DequeModel {
        pub fn new() -> Self {
            DequeModel {
                top: AtomicUsize::new(BASE),
                bottom: AtomicUsize::new(BASE),
                cells: [const { AtomicUsize::new(0) }; CAP],
            }
        }

        /// Owner-only push; `false` = full (the real caller spills to
        /// the injector).
        pub fn push(&self, task: usize) -> bool {
            let b = self.bottom.load(Ordering::Relaxed);
            let t = self.top.load(Ordering::Acquire);
            if b - t >= CAP {
                return false;
            }
            self.cells[b % CAP].store(task, Ordering::Relaxed);
            fence(Ordering::Release);
            self.bottom.store(b + 1, Ordering::Relaxed);
            true
        }

        /// Owner-only pop, including the last-element race arbitration.
        pub fn pop(&self) -> Option<usize> {
            let b = self.bottom.load(Ordering::Relaxed) - 1;
            self.bottom.store(b, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let t = self.top.load(Ordering::Relaxed);
            if t <= b {
                let task = self.cells[b % CAP].load(Ordering::Relaxed);
                if t == b {
                    let won = self
                        .top
                        .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok();
                    self.bottom.store(b + 1, Ordering::Relaxed);
                    return won.then_some(task);
                }
                Some(task)
            } else {
                self.bottom.store(b + 1, Ordering::Relaxed);
                None
            }
        }

        /// Any thread: claim the top element. Read before CAS,
        /// materialised only on success — as in `WorkDeque::steal`.
        pub fn steal(&self) -> Option<usize> {
            let t = self.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return None;
            }
            let task = self.cells[t % CAP].load(Ordering::Relaxed);
            self.top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .ok()
                .map(|_| task)
        }
    }
}

/// Owner interleaving pushes and pops against two thieves: every task
/// is claimed by exactly one side — the last-element race between the
/// owner's unguarded bottom pop and a thief's top CAS must never
/// double-run or strand a task. This is the interleaving that makes a
/// range-CAS batch steal unsound; the model documents why steals claim
/// one element per CAS.
#[test]
fn chase_lev_owner_pop_vs_steal_claims_exactly_once() {
    const TASKS: usize = 4;
    const THIEVES: usize = 2;
    loom::model(|| {
        let deque = Arc::new(dq::DequeModel::new());
        let claims: Arc<Vec<AtomicU32>> =
            Arc::new((0..TASKS).map(|_| AtomicU32::new(0)).collect());
        let claimed = Arc::new(AtomicU32::new(0));

        let thieves: Vec<_> = (0..THIEVES)
            .map(|_| {
                let deque = Arc::clone(&deque);
                let claims = Arc::clone(&claims);
                let claimed = Arc::clone(&claimed);
                thread::spawn(move || {
                    while claimed.load(Ordering::SeqCst) < TASKS as u32 {
                        if let Some(task) = deque.steal() {
                            claims[task - 1].fetch_add(1, Ordering::SeqCst);
                            claimed.fetch_add(1, Ordering::SeqCst);
                        } else {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        // Owner: push task ids 1..=TASKS, popping every other push so
        // the transient bottom decrement overlaps in-flight steals.
        for id in 1..=TASKS {
            assert!(deque.push(id), "model deque never fills at CAP=4");
            if id % 2 == 0 {
                if let Some(task) = deque.pop() {
                    claims[task - 1].fetch_add(1, Ordering::SeqCst);
                    claimed.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        while let Some(task) = deque.pop() {
            claims[task - 1].fetch_add(1, Ordering::SeqCst);
            claimed.fetch_add(1, Ordering::SeqCst);
        }
        // The owner may drain first; thieves exit on the shared count.
        for t in thieves {
            t.join().unwrap();
        }

        assert_eq!(claimed.load(Ordering::SeqCst), TASKS as u32);
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "task {} claimed wrong number of times",
                i + 1
            );
        }
    });
}

// ---------------------------------------------------------------------
// LIFO slot vs park/wake: the per-worker one-task slot
// (`sched.rs::LifoSlot`) is filled by worker-context wakes with *no*
// sibling notify — sound only because (a) handoff out of the slot is a
// single swap, so the owner's take and a stale-slot thief's take can
// never both win, and (b) the owner's sleep protocol re-checks the slot
// *after* announcing idleness (the same Dekker handshake the injector
// uses), so a slot task can never be stranded behind a sleeping owner.

/// Distilled slot + sleep-intent pair. Task ids are non-zero; 0 = empty.
struct SlotModel {
    slot: AtomicUsize,
    /// The owner's idle announcement (`idle_count` in the real pool).
    idle: AtomicBool,
    /// Per-task run ledger, indexed by id - 1.
    ran: [AtomicU32; 2],
    /// Set when the owner reached the "actually sleep" branch.
    slept: AtomicBool,
}

impl SlotModel {
    fn new() -> Self {
        SlotModel {
            slot: AtomicUsize::new(0),
            idle: AtomicBool::new(false),
            ran: [const { AtomicU32::new(0) }; 2],
            slept: AtomicBool::new(false),
        }
    }

    fn run(&self, task: usize) {
        self.ran[task - 1].fetch_add(1, Ordering::SeqCst);
    }

    /// Worker-context wake: swap the task in; a displaced occupant goes
    /// to the owner's deque — modelled as the owner claiming it, which
    /// is what `Scheduler::enqueue` does via `push_local_deque`.
    fn put(&self, task: usize) -> Option<usize> {
        let old = self.slot.swap(task, Ordering::AcqRel);
        (old != 0).then_some(old)
    }

    /// Single-swap handoff, shared by the owner's fast path and a
    /// thief's stale-slot pass.
    fn take(&self) -> Option<usize> {
        let old = self.slot.swap(0, Ordering::AcqRel);
        (old != 0).then_some(old)
    }
}

#[test]
fn lifo_slot_handoff_is_exactly_once_and_never_stranded() {
    loom::model(|| {
        let m = Arc::new(SlotModel::new());
        // Task 1 sits in the slot from an earlier wake and has gone
        // stale (its owner stalled), making it fair game for a thief.
        m.put(1);

        // The thief's stale-slot pass races everything below.
        let thief = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                if let Some(task) = m.take() {
                    m.run(task);
                }
            })
        };

        // The owner comes back, gets task 2 woken onto its slot
        // (displacing task 1 to its deque if still present), then heads
        // into the sleep protocol.
        let owner = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                if let Some(displaced) = m.put(2) {
                    m.run(displaced);
                }
                // Sleep protocol: announce idleness FIRST, then fence,
                // then re-check the slot. Swapping these two steps is
                // the lost-wakeup bug this model exists to rule out.
                m.idle.store(true, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if let Some(task) = m.take() {
                    m.run(task);
                } else {
                    m.slept.store(true, Ordering::SeqCst);
                }
            })
        };

        thief.join().unwrap();
        owner.join().unwrap();

        // Exactly-once: both tasks ran, neither twice — the swap
        // handoff admits no double-claim interleaving.
        assert_eq!(m.ran[0].load(Ordering::SeqCst), 1, "task 1 run count");
        assert_eq!(m.ran[1].load(Ordering::SeqCst), 1, "task 2 run count");
        // Never stranded: if the owner slept, the slot is empty — any
        // occupant was claimed by the thief, not left behind a parked
        // worker that will never be notified.
        if m.slept.load(Ordering::SeqCst) {
            assert_eq!(m.slot.load(Ordering::SeqCst), 0, "task stranded behind sleep");
        }
    });
}

// ---------------------------------------------------------------------
// Going blocked is going idle: the wake discipline's invariant
// (`sched.rs::Scheduler::maybe_wake`) — whenever a task is runnable and no
// worker is active (awake, unblocked, not idle), a wake is in flight — at
// the second of the two transitions by which a worker stops being active.
// Three parties over the pool's real counters: a worker that pushes a task
// (its LIFO flush) and enters a blocking section, and two workers heading
// into the sleep protocol. The pool is the one the stalls were seen in: a
// core quota of 1, and enough lingering spares (`live` 3, `target` 2) that
// the head-count never calls for a spare, so the push is all there is to
// wake anybody for.

struct WakeModel {
    /// Tasks in the run queues (the blocker's deque, which any scan sees).
    queued: AtomicUsize,
    ran: AtomicUsize,
    blocked: AtomicUsize,
    idle: AtomicUsize,
    wakes_pending: AtomicUsize,
    /// Registered latches, by worker, and which of them were notified.
    sleepers: Mutex<Vec<usize>>,
    notified: [AtomicBool; 3],
}

impl WakeModel {
    const LIVE: usize = 3;
    const QUOTA: usize = 1;

    fn new() -> Self {
        WakeModel {
            queued: AtomicUsize::new(0),
            ran: AtomicUsize::new(0),
            blocked: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
            wakes_pending: AtomicUsize::new(0),
            sleepers: Mutex::new(Vec::new()),
            notified: [const { AtomicBool::new(false) }; 3],
        }
    }

    /// Claim a queued task, if there is one, and run it.
    fn take(&self) -> bool {
        let claim = |n: usize| n.checked_sub(1);
        let claimed = self.queued.fetch_update(Ordering::AcqRel, Ordering::Acquire, claim);
        let took = claimed.is_ok();
        if took {
            self.ran.fetch_add(1, Ordering::SeqCst);
        }
        took
    }

    /// `Scheduler::maybe_wake`, gate for gate.
    fn maybe_wake(&self) {
        fence(Ordering::SeqCst);
        let idle = self.idle.load(Ordering::Relaxed);
        if idle == 0 || self.wakes_pending.load(Ordering::Relaxed) > 0 {
            return;
        }
        let blocked = self.blocked.load(Ordering::Relaxed);
        if Self::LIVE.saturating_sub(blocked).saturating_sub(idle) >= Self::QUOTA {
            return;
        }
        if let Some(sleeper) = self.sleepers.lock().unwrap().pop() {
            self.wakes_pending.fetch_add(1, Ordering::SeqCst);
            self.notified[sleeper].store(true, Ordering::SeqCst);
        }
    }

    /// `blocking` on a worker: flush, and leave `active`. `decide_first` is
    /// the order that stalled — the flush's own `maybe_wake`, made while the
    /// flusher still counts as active, then the count (whose head-count,
    /// `LIVE - 1 >= target`, compensates nothing).
    fn push_then_block(&self, decide_first: bool) {
        self.queued.fetch_add(1, Ordering::Release);
        if decide_first {
            self.maybe_wake();
        }
        self.blocked.fetch_add(1, Ordering::AcqRel);
        if !decide_first {
            fence(Ordering::SeqCst);
            if self.queued.load(Ordering::Relaxed) > 0 {
                self.maybe_wake();
            }
        }
    }

    /// `worker_main` from an empty scan on: register, announce, fence,
    /// re-check; run what turns up and come round again; else park.
    fn work_until_parked(&self, me: usize) {
        loop {
            if self.take() {
                continue;
            }
            self.sleepers.lock().unwrap().push(me);
            self.idle.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if self.queued.load(Ordering::Relaxed) == 0 {
                return;
            }
            self.sleepers.lock().unwrap().retain(|s| *s != me);
            self.idle.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// `in_turn` takes the race out: both sleepers are parked before the push,
/// the one order in which only a wake can save the task, whatever the
/// host's scheduler feels like.
fn going_blocked_model(decide_first: bool, in_turn: bool) {
    loom::model(move || {
        let model = Arc::new(WakeModel::new());
        let sleepers: Vec<_> = [1, 2]
            .into_iter()
            .map(|me| {
                let model = model.clone();
                let spawned = thread::spawn(move || model.work_until_parked(me));
                if in_turn {
                    spawned.join().unwrap();
                    return None;
                }
                Some(spawned)
            })
            .collect();
        let blocker = {
            let model = model.clone();
            thread::spawn(move || model.push_then_block(decide_first))
        };
        blocker.join().unwrap();
        for sleeper in sleepers.into_iter().flatten() {
            sleeper.join().unwrap();
        }
        // Everybody is blocked or parked. The task has run, or a notify is
        // on its way to a sleeper that will run it.
        let ran = model.ran.load(Ordering::SeqCst);
        let waking = model.notified.iter().any(|n| n.load(Ordering::SeqCst));
        assert!(ran <= 1, "the task ran {ran} times");
        assert!(
            ran == 1 || waking,
            "a queued task, zero active workers and no wake pending"
        );
    });
}

#[test]
fn worker_going_blocked_leaves_a_wake_for_what_it_queued() {
    going_blocked_model(false, false);
    going_blocked_model(false, true);
}

/// The seeded bug — decide, then count: the order `blocking` had — must be
/// found, every time.
#[test]
#[should_panic(expected = "a queued task, zero active workers and no wake pending")]
fn worker_going_blocked_catches_a_decision_made_before_the_count() {
    going_blocked_model(true, true);
}

// ---------------------------------------------------------------------
// Group-commit leader election: the `DurableLog` commit queue
// (`crates/eden-kernel/src/stable/committer.rs::submit`/`lead`). The
// first submitter to find no leader becomes the leader and drives
// batches until the queue drains; later submitters enqueue a ticket and
// wait for `complete` to cover it. The distilled contract:
//
// 1. at most one leader drives `commit_batch` at any moment — the
//    leader flag admits no interleaving where two threads append;
// 2. every submitted ticket completes (no waiter is stranded when the
//    leader drains the queue and steps down);
// 3. append order is ticket order, and per-UID versions assigned under
//    the brief index lock (the blessed stable-committer < stable-index
//    nesting) are gapless and monotone — concurrent stores to the same
//    UID can never allocate duplicate or out-of-order versions.

struct CommitQueueModel {
    pending: Vec<(u64, u32)>,
    leader: bool,
    next_ticket: u64,
    complete: u64,
}

struct CommitModel {
    q: Mutex<CommitQueueModel>,
    done: loom::sync::Condvar,
    /// The index: per-UID latest version, read under its own lock while
    /// the leader assigns versions (committer lock already held in the
    /// real code's `lead`; the model keeps the same nesting direction).
    index: Mutex<std::collections::HashMap<u32, u64>>,
    /// The appended log: (ticket, uid, version) in append order.
    log: Mutex<Vec<(u64, u32, u64)>>,
    /// Concurrent `commit_batch` drivers; must never exceed one.
    driving: AtomicU32,
}

impl CommitModel {
    fn new() -> Self {
        CommitModel {
            q: Mutex::new(CommitQueueModel {
                pending: Vec::new(),
                leader: false,
                next_ticket: 0,
                complete: 0,
            }),
            done: loom::sync::Condvar::new(),
            index: Mutex::new(std::collections::HashMap::new()),
            log: Mutex::new(Vec::new()),
            driving: AtomicU32::new(0),
        }
    }

    /// Mirror of `LogInner::submit`: enqueue, then ride or lead.
    fn submit(&self, uid: u32) {
        let ticket;
        {
            let mut q = self.q.lock().unwrap();
            ticket = q.next_ticket;
            q.next_ticket += 1;
            q.pending.push((ticket, uid));
            if q.leader {
                // Invariant 2's waiter side: `complete` must eventually
                // cover our ticket. `complete` starts at 0 and tickets
                // at 0, so the guard is `<=` where the real code (whose
                // tickets start later) uses `<`.
                while q.complete <= ticket {
                    q = self.done.wait(q).unwrap();
                }
                return;
            }
            q.leader = true;
        }
        self.lead();
    }

    /// Mirror of `LogInner::lead`: drive batches until the queue drains.
    fn lead(&self) {
        loop {
            let batch = {
                let mut q = self.q.lock().unwrap();
                if q.pending.is_empty() {
                    q.leader = false;
                    self.done.notify_all();
                    return;
                }
                std::mem::take(&mut q.pending)
            };

            // Invariant 1: we are the only driver.
            assert_eq!(
                self.driving.fetch_add(1, Ordering::SeqCst),
                0,
                "two leaders driving commit_batch concurrently"
            );
            {
                // Mirror of `commit_batch`'s version assignment: the
                // blessed stable-committer < stable-index nesting, held
                // briefly, single leader being the only appender.
                let mut index = self.index.lock().unwrap();
                let mut log = self.log.lock().unwrap();
                for (ticket, uid) in &batch {
                    let version = index.get(uid).copied().unwrap_or(0) + 1;
                    index.insert(*uid, version);
                    log.push((*ticket, *uid, version));
                }
            }
            self.driving.fetch_sub(1, Ordering::SeqCst);

            let mut q = self.q.lock().unwrap();
            let last = batch.last().map_or(q.complete, |(t, _)| t + 1);
            if q.complete < last {
                q.complete = last;
            }
            self.done.notify_all();
        }
    }
}

#[test]
fn group_commit_elects_one_leader_and_strands_no_ticket() {
    const SUBMITTERS: u32 = 3;
    const PER_SUBMITTER: u32 = 2;
    loom::model(|| {
        let model = Arc::new(CommitModel::new());

        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                let model = model.clone();
                thread::spawn(move || {
                    for _ in 0..PER_SUBMITTER {
                        // Two submitters share UID 0 (the racing-stores
                        // case); the third writes its own.
                        model.submit(if s < 2 { 0 } else { s });
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }

        let q = model.q.lock().unwrap();
        let log = model.log.lock().unwrap();
        let index = model.index.lock().unwrap();
        let total = (SUBMITTERS * PER_SUBMITTER) as u64;

        // Invariant 2: every ticket completed, nobody left leading.
        assert_eq!(q.next_ticket, total);
        assert_eq!(q.complete, total);
        assert!(!q.leader);
        assert!(q.pending.is_empty());

        // Invariant 3: append order is ticket order (each ticket exactly
        // once), and per-UID versions are gapless and monotone.
        let tickets: Vec<u64> = log.iter().map(|(t, _, _)| *t).collect();
        assert_eq!(tickets, (0..total).collect::<Vec<_>>());
        let mut seen: std::collections::HashMap<u32, u64> = Default::default();
        for (_, uid, version) in log.iter() {
            let prev = seen.insert(*uid, *version).unwrap_or(0);
            assert_eq!(*version, prev + 1, "uid {uid} version gap or reorder");
        }
        for (uid, version) in seen {
            assert_eq!(index.get(&uid), Some(&version), "index behind the log");
        }
    });
}

// ---------------------------------------------------------------------
// Park-vs-crash: a bounded mailbox's Park admission
// (`crates/eden-kernel/src/mailbox.rs::push`/`admit`/`close`). A sender
// parked on the `not_full` condvar races the consumer Eject crashing,
// which closes the mailbox. The distilled contract:
//
// 1. a parked sender always terminates — `close()` sets `closed` under
//    the ring lock *before* `notify_all`, and the parked sender re-checks
//    `closed` under the same lock on every wake, so no interleaving
//    strands the sender on the condvar (the park-forever bug);
// 2. envelopes are conserved: everything delivered is either popped by
//    the consumer or drained by `close()` — a send that raced the close
//    and lost gets its envelope back (`SendError`), never half-queued;
// 3. after `close()`, no send ever succeeds.
//
// The deadline-aware arm (`wait_for(ring, admit_by - now)`) cannot be
// modelled here — the vendored loom has no timed condvar wait — so its
// wall-clock behaviour is covered by the real-ring tests in `mailbox.rs`
// (`park_with_deadline_sheds_on_timeout`). What loom adds is the
// untimed arm: the only way out of a plain park is a notify, so the
// close ordering above is load-bearing.

/// Distilled bounded ring: occupancy count + closed flag under one lock,
/// the same `not_full` condvar discipline as `MailboxCore`.
struct BoundedModel {
    ring: Mutex<(u32, bool)>,
    not_full: loom::sync::Condvar,
    cap: u32,
}

impl BoundedModel {
    fn new(cap: u32) -> Self {
        BoundedModel {
            ring: Mutex::new((0, false)),
            not_full: loom::sync::Condvar::new(),
            cap,
        }
    }

    /// Mirror of `push` under `ShedPolicy::Park` with no deadline:
    /// re-check closed, park while full, deliver once space frees.
    /// `Err` hands the envelope back, as `SendError` does.
    fn send(&self) -> Result<(), ()> {
        let mut ring = self.ring.lock().unwrap();
        loop {
            if ring.1 {
                return Err(());
            }
            if ring.0 >= self.cap {
                ring = self.not_full.wait(ring).unwrap();
                continue;
            }
            ring.0 += 1;
            return Ok(());
        }
    }

    /// Mirror of `pop`: drain one, then notify a parked sender.
    fn pop(&self) -> bool {
        let popped = {
            let mut ring = self.ring.lock().unwrap();
            if ring.0 == 0 {
                false
            } else {
                ring.0 -= 1;
                true
            }
        };
        if popped {
            self.not_full.notify_one();
        }
        popped
    }

    /// Mirror of `close`: mark closed and drain under the lock, then
    /// wake every parked sender so they observe the close.
    fn close(&self) -> u32 {
        let drained = {
            let mut ring = self.ring.lock().unwrap();
            ring.1 = true;
            std::mem::replace(&mut ring.0, 0)
        };
        self.not_full.notify_all();
        drained
    }
}

#[test]
fn parked_sender_observes_consumer_crash() {
    loom::model(|| {
        let m = Arc::new(BoundedModel::new(1));
        // Fill the ring so the racing sender must park.
        assert!(m.send().is_ok());

        let sender = {
            let m = Arc::clone(&m);
            thread::spawn(move || m.send())
        };
        let crasher = {
            let m = Arc::clone(&m);
            thread::spawn(move || m.close())
        };

        // Invariant 1 is the joins themselves: loom flags any
        // interleaving where the parked sender never wakes.
        let sent = sender.join().unwrap();
        let drained = crasher.join().unwrap();

        // The ring was full for the whole race, so the parked sender can
        // only ever observe the close (invariant 3).
        assert!(sent.is_err(), "send succeeded past a full, closing ring");
        assert_eq!(drained, 1, "close drained the wrong occupancy");
        let ring = m.ring.lock().unwrap();
        assert!(ring.1);
        assert_eq!(ring.0, 0);
    });
}

#[test]
fn park_drain_crash_race_conserves_envelopes() {
    loom::model(|| {
        let m = Arc::new(BoundedModel::new(1));
        assert!(m.send().is_ok());

        // The parked sender races a consumer that drains once and then
        // crashes — the sender may slip its envelope in through the
        // freed slot, or lose to the close and get it back.
        let sender = {
            let m = Arc::clone(&m);
            thread::spawn(move || m.send())
        };
        let consumer = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                let popped = u32::from(m.pop());
                (popped, m.close())
            })
        };

        let sent = sender.join().unwrap();
        let (popped, drained) = consumer.join().unwrap();

        // Invariant 2: every delivery is popped or drained, exactly once.
        let delivered = 1 + u32::from(sent.is_ok());
        assert_eq!(
            popped + drained,
            delivered,
            "envelope lost or duplicated across the crash"
        );
        let ring = m.ring.lock().unwrap();
        assert!(ring.1);
        assert_eq!(ring.0, 0, "close left mail behind");
    });
}

// ---------------------------------------------------------------------
// The death latch: `Task::mark_died` against `Task::wait_dead`, and the live
// count `Scheduler::reap` lowers against `Scheduler::wait_all_dead`
// (`crates/eden-kernel/src/sched.rs`). Neither wait looks again on a clock,
// so a notify is its only way out. The distilled contract: the flag (the
// count) is written under the lock the waiter reads it under, before the
// notify, so every waiter returns — the joins below are the invariant — and
// sees every task dead.

struct LatchModel {
    died: [(Mutex<bool>, Condvar); 2],
    /// `death_mx` and the count it now guards.
    alive: (Mutex<u32>, Condvar),
}

impl LatchModel {
    fn new() -> Self {
        LatchModel {
            died: [
                (Mutex::new(false), Condvar::new()),
                (Mutex::new(false), Condvar::new()),
            ],
            alive: (Mutex::new(2), Condvar::new()),
        }
    }

    /// Mirror of the tail of `reap`: trip the task's latch, then lower the
    /// count under `death_mx` and notify.
    fn reap(&self, task: usize) {
        let (died, died_cv) = &self.died[task];
        *died.lock().unwrap() = true;
        died_cv.notify_all();
        let (alive, death_cv) = &self.alive;
        *alive.lock().unwrap() -= 1;
        death_cv.notify_all();
    }

    /// Mirror of `wait_dead(None)`: a look, then the untimed wait.
    fn wait_dead(&self, task: usize) {
        let (died, died_cv) = &self.died[task];
        if *died.lock().unwrap() {
            return;
        }
        let mut dead = died.lock().unwrap();
        while !*dead {
            dead = died_cv.wait(dead).unwrap();
        }
    }

    /// Mirror of `wait_all_dead` off the pool (nothing of its own resuming).
    fn wait_all_dead(&self) {
        let (alive, death_cv) = &self.alive;
        let mut alive = alive.lock().unwrap();
        while *alive > 0 {
            alive = death_cv.wait(alive).unwrap();
        }
    }
}

#[test]
fn death_latch_wakes_every_waiter_with_no_recheck() {
    loom::model(|| {
        let m = Arc::new(LatchModel::new());
        let waiters: Vec<_> = (0..3)
            .map(|w| {
                let m = m.clone();
                thread::spawn(move || match w {
                    2 => m.wait_all_dead(),
                    task => m.wait_dead(task),
                })
            })
            .collect();
        let reapers: Vec<_> = (0..2)
            .map(|task| {
                let m = m.clone();
                thread::spawn(move || m.reap(task))
            })
            .collect();
        for handle in reapers.into_iter().chain(waiters) {
            handle.join().unwrap();
        }
        assert!(m.died.iter().all(|(died, _)| *died.lock().unwrap()));
        assert_eq!(*m.alive.0.lock().unwrap(), 0);
    });
}
