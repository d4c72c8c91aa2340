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
//!    budget;
//! 5. the second kind of waiter, an Eject's mailbox (`EjectContext::
//!    poll_reply`): a registration that stands is posted exactly once, and
//!    only after the outcome is published, so the step the post wakes sees
//!    it; one that lost to the settle is never posted; and one withdrawn by
//!    a dropped awaiter is posted by nobody and held by nobody;
//! 6. a cell the awaiting thread retires and pairs again from (`Awaiter`'s
//!    drop and `reply_cell`, over `eden-core`'s `Shelf`) is kept only
//!    once the settler has let go of it, so each round reads its own
//!    outcome: never the last round's, and never a crash the last round's
//!    settler reported into it.
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

    /// An Eject's mailbox, as the cell sees it: the posts it holds, which
    /// its coordinator takes one at a time, sleeping while there is none.
    pub struct Mailbox {
        posts: Mutex<u32>,
        cv: Condvar,
        /// Every post ever made to it.
        pub posted: AtomicU32,
    }

    impl Mailbox {
        fn post(&self) {
            self.posted.fetch_add(1, Ordering::SeqCst);
            *self.posts.lock().unwrap() += 1;
            self.cv.notify_one();
        }

        /// The coordinator, parked until a post arrives.
        pub fn recv(&self) {
            let mut posts = self.posts.lock().unwrap();
            while *posts == 0 {
                posts = self.cv.wait(posts).unwrap();
            }
            *posts -= 1;
        }
    }

    pub struct Cell {
        state: AtomicU8,
        /// The value slot (0 = nothing written). Plain memory in the real
        /// cell, hence `Relaxed` here.
        value: AtomicU32,
        /// The published waiter (0 = none): a thread handle or a mailbox.
        /// Plain memory in the real cell, hence `Relaxed` here.
        handle: AtomicUsize,
        token: Token,
        /// Unparks the settling half issued.
        pub wakes: AtomicU32,
        pub mailbox: Mailbox,
    }

    /// The waiter's published thread handle.
    const WAITER: usize = 1;
    /// The waiter's published mailbox.
    const MAILBOX: usize = 2;

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
                mailbox: Mailbox {
                    posts: Mutex::new(0),
                    cv: Condvar::new(),
                    posted: AtomicU32::new(0),
                },
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
        /// unanswered. Returns whether a registered waiter was told.
        pub fn finish(&self, reply: Option<u32>) -> bool {
            self.finish_posting_early(reply, None)
        }

        /// [`finish`](Self::finish), or — given `looked` — its seeded bug: a
        /// registered mailbox is posted *before* the terminal swap, and the
        /// swap waits until the coordinator has looked (the race taken out,
        /// in turn).
        pub fn finish_posting_early(
            &self,
            reply: Option<u32>,
            looked: Option<&AtomicBool>,
        ) -> bool {
            let terminal = match reply {
                Some(v) => {
                    self.value.store(v, Ordering::Relaxed);
                    SETTLED
                }
                None => ABANDONED,
            };
            let early = looked.is_some()
                && self.state.load(Ordering::Acquire) == WAITING
                && self.handle.load(Ordering::Relaxed) == MAILBOX;
            if early {
                self.mailbox.post();
                while !looked.is_some_and(|looked| looked.load(Ordering::SeqCst)) {
                    thread::yield_now();
                }
            }
            if self.state.swap(terminal, Ordering::AcqRel) != WAITING {
                return false;
            }
            // The swap's Acquire must make the waiter's handle visible.
            match self.handle.swap(0, Ordering::Relaxed) {
                WAITER => {
                    self.wakes.fetch_add(1, Ordering::SeqCst);
                    self.unpark();
                }
                MAILBOX if early => {}
                MAILBOX => self.mailbox.post(),
                _ => panic!("handle not published"),
            }
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
            self.register_as(WAITER)
        }

        fn register_as(&self, waiter: usize) -> bool {
            self.handle.store(waiter, Ordering::Relaxed);
            let registered = self
                .state
                .compare_exchange(EMPTY, WAITING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            if !registered {
                // The settle replaced `EMPTY`: the slot is the awaiter's again.
                self.handle.store(0, Ordering::Relaxed);
            }
            registered
        }

        /// `EjectContext::poll_reply`: the outcome if it is in, else the
        /// mailbox registered (a standing registration is left as it is).
        pub fn poll_or_register(&self) -> Option<Outcome> {
            match self.state.load(Ordering::Acquire) {
                WAITING => None,
                EMPTY if self.register_as(MAILBOX) => None,
                _ => Some(
                    self.try_take()
                        .expect("registration lost to a terminal state"),
                ),
            }
        }

        /// A dropped awaiter takes its mailbox back: `WAITING -> EMPTY`.
        /// Losing means the settle took it, and posts.
        pub fn withdraw(&self) -> bool {
            let withdrawn = self.state.load(Ordering::Relaxed) == WAITING
                && self
                    .state
                    .compare_exchange(WAITING, EMPTY, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
            if withdrawn {
                self.handle.store(0, Ordering::Relaxed);
            }
            withdrawn
        }

        /// `Awaiter`'s drop keeping the cell: back to `EMPTY`, both slots
        /// clear. Plain writes in the real cell, hence `Relaxed` here.
        pub fn reset(&self) {
            self.state.store(EMPTY, Ordering::Relaxed);
            self.value.store(0, Ordering::Relaxed);
            self.handle.store(0, Ordering::Relaxed);
        }

        /// `Settler`'s drop: a relaxed look at its own earlier swap, and
        /// the cell abandoned if it reads no terminal state.
        pub fn drop_settler(&self) {
            if self.state.load(Ordering::Relaxed) < SETTLED {
                self.finish(None);
            }
        }

        /// Whatever waiter is published (0: none).
        pub fn handle(&self) -> usize {
            self.handle.load(Ordering::SeqCst)
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
                return self
                    .try_take()
                    .expect("registration lost to a terminal state");
            }
            while self.state() < SETTLED && !expired.load(Ordering::SeqCst) {
                self.park();
            }
            if self.deregister() {
                Outcome::TimedOut
            } else {
                self.try_take()
                    .expect("deregistration lost to a terminal state")
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

/// A coordinator asks for a reply while it settles, or is dropped unanswered.
/// A registration that stands is posted exactly once, and the step that the
/// post wakes sees the outcome; one that lost to the settle is never posted.
#[test]
fn reply_cell_posts_a_registered_mailbox_once_and_after_the_outcome() {
    loom::model(|| {
        for reply in [Some(5), None] {
            let cell = Arc::new(rc::Cell::new());
            let settler = {
                let cell = cell.clone();
                thread::spawn(move || cell.finish(reply))
            };
            let (outcome, registered) = match cell.poll_or_register() {
                Some(outcome) => (outcome, false),
                None => {
                    cell.mailbox.recv();
                    let seen = cell.try_take();
                    (
                        seen.expect("the post woke a step that cannot see the outcome"),
                        true,
                    )
                }
            };
            let told = settler.join().unwrap();
            assert_eq!(outcome, reply.map_or(Outcome::Crashed, Outcome::Replied));
            assert_eq!(
                told, registered,
                "the settle told a waiter the poll did not register"
            );
            let posted = cell.mailbox.posted.load(Ordering::SeqCst);
            assert_eq!(
                posted,
                u32::from(registered),
                "posts to a mailbox that registered"
            );
        }
    });
}

/// An awaiter dropped while its mailbox is registered — a pump deactivated
/// mid-wait — races the settle: exactly one of them takes the registration,
/// a withdrawn mailbox is never posted, and neither leaves it held.
#[test]
fn dropped_awaiter_withdraws_its_mailbox_and_is_never_posted() {
    loom::model(|| {
        let cell = Arc::new(rc::Cell::new());
        assert!(
            cell.poll_or_register().is_none(),
            "nothing raced the registration"
        );
        let settler = {
            let cell = cell.clone();
            thread::spawn(move || cell.finish(Some(9)))
        };
        let withdrawn = cell.withdraw();
        let told = settler.join().unwrap();
        assert!(withdrawn ^ told, "both or neither took the registration");
        assert_eq!(cell.mailbox.posted.load(Ordering::SeqCst), u32::from(told));
        assert_eq!(cell.handle(), 0, "the mailbox is still held");
        assert_eq!(cell.try_take(), Some(Outcome::Replied(9)));
    });
}

/// The seeded bug must be found, every time: a settle that posts the
/// mailbox before it publishes the outcome wakes a step that finds none.
#[test]
#[should_panic(expected = "the post woke a step that cannot see the outcome")]
fn reply_cell_catches_a_post_made_before_the_outcome() {
    loom::model(|| {
        let cell = Arc::new(rc::Cell::new());
        let looked = Arc::new(AtomicBool::new(false));
        assert!(
            cell.poll_or_register().is_none(),
            "nothing raced the registration"
        );
        let settler = {
            let (cell, looked) = (cell.clone(), looked.clone());
            thread::spawn(move || cell.finish_posting_early(Some(4), Some(&looked)))
        };
        cell.mailbox.recv();
        let seen = cell.try_take();
        looked.store(true, Ordering::SeqCst);
        settler.join().unwrap();
        seen.expect("the post woke a step that cannot see the outcome");
    });
}

// ---------------------------------------------------------------------
// Retire and reuse (contract 6). The settling half settles, then its drop
// looks at the state word, then its `Arc` goes; the awaiting half reads,
// retires the cell — keeps it if the strong count reads 1, then an Acquire
// fence and a reset — and pairs again from it, or from a new cell. A cell
// kept while the settler still holds it is reset under the settler's drop,
// which reads `EMPTY` and abandons the next round's cell.
//
// The `vendor/loom` shim repeats the model rather than exploring its
// interleavings (ROADMAP item 2(a)): the racing form samples the schedules
// it reaches, and the in-turn form forces the one order (the settler's drop
// looks only after the retire) in which the seeded bug cannot be missed.

/// `Awaiter`'s drop: `cell` kept for the next round if nobody else holds
/// it, else `None` (it goes, and the round pairs from a new cell). With
/// `unchecked` — the seeded bug — kept whatever the count.
fn retire(cell: Arc<rc::Cell>, unchecked: bool) -> Option<Arc<rc::Cell>> {
    if !unchecked && Arc::strong_count(&cell) != 1 {
        return None;
    }
    fence(Ordering::Acquire);
    cell.reset();
    Some(cell)
}

fn retire_and_reuse_model(unchecked: bool, in_turn: bool) {
    loom::model(move || {
        let never = AtomicBool::new(false);
        let mut cell = Arc::new(rc::Cell::new());
        let mut settlers = Vec::new();
        for round in 1..=2 {
            // A cell paired again holds no outcome yet.
            let stale = cell.try_take();
            assert_eq!(stale, None, "a round read another round's outcome");
            let retired = Arc::new(AtomicBool::new(false));
            settlers.push({
                let (cell, retired) = (cell.clone(), retired.clone());
                thread::spawn(move || {
                    cell.finish(Some(round));
                    while in_turn && !retired.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    cell.drop_settler();
                })
            });
            let outcome = cell.wait(&never);
            assert_eq!(
                outcome,
                Outcome::Replied(round),
                "a round read another round's outcome"
            );
            cell = retire(cell, unchecked).unwrap_or_else(|| Arc::new(rc::Cell::new()));
            retired.store(true, Ordering::SeqCst);
            if in_turn {
                settlers.pop().unwrap().join().unwrap();
            }
        }
        for settler in settlers {
            settler.join().unwrap();
        }
    });
}

/// The awaiting thread pairs twice, retiring its cell in between, while the
/// first round's settler is still finishing: each round reads its own reply.
#[test]
fn a_retired_cell_reused_reads_each_round_its_own_outcome() {
    retire_and_reuse_model(false, false);
    retire_and_reuse_model(false, true);
}

/// The seeded bug must be found, every time: a cell kept without the count
/// check is reset under a settler whose drop has yet to look, and that look
/// abandons the next round's cell.
#[test]
#[should_panic(expected = "a round read another round's outcome")]
fn retire_and_reuse_catches_a_cell_kept_while_its_settler_holds_it() {
    retire_and_reuse_model(true, true);
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
        let cells: Arc<Vec<rc::Cell>> =
            Arc::new((0..MAX_ATTEMPTS).map(|_| rc::Cell::new()).collect());
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

        // Caller loop (`PendingReply::wait_timeout`): wait; on a retryable
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
// 2. no two threads ever hold the behaviour body at once: whoever spends a
//    wake — a worker that claimed a run-queue entry, or a calling sender
//    that runs the wake its own push won — finds the body in its slot and
//    nobody else holding it. This is the property `Task::body`'s
//    `UnsafeCell` rests on: the body has no lock, and its owner is the
//    holder of the park bit in RUNNING. So the consumer puts the body back
//    *before* the park-bit write that hands it on — the `RUNNING ->
//    PARKED` CAS, or a requeue's `-> QUEUED` store — and a racing wake
//    always finds it free;
// 3. the bit ends PARKED with the mailbox and run queue both empty, and
//    mail was served in the order it was pushed;
// 4. every bit transition the model performs is an edge of
//    `mailbox::spec::TRANSITIONS` — the same declarative table
//    `eden-lint --protocol` checks the real code against. Stores learn
//    their from-state via `swap`, so an off-spec edge (a pickup from
//    PARKED, a reclaim from RUNNING) panics here instead of hiding.
//
// The `vendor/loom` shim repeats each model rather than exploring its
// interleavings (ROADMAP item 2(a)), so the racing tests below sample the
// schedules they reach, and the seeded-bug twin forces its one bad order
// on a single thread.

use std::collections::VecDeque;

use eden_kernel::mailbox::park as pk;
use eden_kernel::mailbox::spec;

/// The behaviour body's slot, reduced to whether somebody holds it. A take
/// swaps the flag and asserts it was clear; a put clears it. The flag is
/// `Relaxed`: it orders nothing, so whatever keeps two holders apart is the
/// park bit's.
struct BodySlot {
    held: AtomicBool,
}

impl BodySlot {
    fn take(&self) {
        assert!(
            !self.held.swap(true, Ordering::Relaxed),
            "two threads hold the body: it was handed on before it was put back"
        );
    }

    fn put(&self) {
        self.held.store(false, Ordering::Relaxed);
    }
}

struct ParkModel {
    bit: loom::sync::atomic::AtomicU8,
    /// Pending mail (the ring, reduced to envelope ids) and, beside it,
    /// every id ever pushed, in push order.
    mailq: Mutex<(VecDeque<u32>, Vec<u32>)>,
    /// The behaviour body: free iff the task is parked or queued.
    body: BodySlot,
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
            body: BodySlot {
                held: AtomicBool::new(false),
            },
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
        self.resume_putting_back_late(awaited, None);
    }

    /// [`resume`](Self::resume), or with `late` its seeded bug: the body
    /// goes back only after the park CAS, and `late` runs in between.
    fn resume_putting_back_late(&self, awaited: Option<u32>, late: Option<&dyn Fn()>) {
        let prev = self.bit.swap(pk::RUNNING, Ordering::AcqRel);
        spec::assert_transition(prev, pk::RUNNING);
        // Invariant 2: a spent wake finds the body free.
        self.body.take();
        loop {
            let popped = self.mailq.lock().unwrap().0.pop_front();
            if let Some(id) = popped {
                let settled =
                    awaited.is_some_and(|mine| self.served.lock().unwrap().contains(&mine));
                if settled {
                    // `unpop` + `requeue`: body, state, then the queue.
                    self.mailq.lock().unwrap().0.push_front(id);
                    self.body.put();
                    let prev = self.bit.swap(pk::QUEUED, Ordering::AcqRel);
                    spec::assert_transition(prev, pk::QUEUED);
                    *self.runq.lock().unwrap() += 1;
                    return;
                }
                self.served.lock().unwrap().push(id);
                continue;
            }
            // Put the body back BEFORE the CAS advertises PARKED: the CAS
            // hands it on, and the swapped order lets a racing wake take
            // a body this thread still holds.
            if late.is_none() {
                self.body.put();
            }
            match self.bit.compare_exchange(
                pk::RUNNING,
                pk::PARKED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    spec::assert_transition(pk::RUNNING, pk::PARKED);
                    self.parks.fetch_add(1, Ordering::SeqCst);
                    if let Some(late) = late {
                        late();
                        self.body.put();
                    }
                    return;
                }
                Err(_) => {
                    // A sender dirtied us: reclaim the body and drain on.
                    let prev = self.bit.swap(pk::RUNNING, Ordering::AcqRel);
                    spec::assert_transition(prev, pk::RUNNING);
                    if late.is_none() {
                        self.body.take();
                    }
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
        assert_eq!(
            *self.served.lock().unwrap(),
            ring.1,
            "served out of push order"
        );
        assert_eq!(*self.runq.lock().unwrap(), 0);
        assert_eq!(self.bit.load(Ordering::Acquire), pk::PARKED);
        assert!(!self.body.held.load(Ordering::Relaxed));
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

/// The seeded bug must be found, every time: a consumer that parks before
/// it puts the body back has handed on a body it still holds, and a sender
/// whose wake lands in that gap gets it run at once — here on the same
/// thread, the one order in which the gap cannot be missed.
#[test]
#[should_panic(expected = "two threads hold the body")]
fn park_vs_deliver_catches_a_body_put_back_after_the_park() {
    loom::model(|| {
        let model = ParkModel::new();
        model.send(1);
        // A worker claims the wake, parks with the body in hand, and a
        // second send's wake is spent before the body goes back.
        *model.runq.lock().unwrap() -= 1;
        model.resume_putting_back_late(
            None,
            Some(&|| {
                model.send(2);
                model.try_resume();
            }),
        );
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
// Going blocked is going idle: the wake discipline's invariant
// (`sched.rs::Scheduler::maybe_wake`) — whenever a task is runnable and no
// worker is active (awake, unblocked, not idle), a wake is in flight — at
// the second of the two transitions by which a worker stops being active.
// Three parties over the pool's real counters: a worker that pushes a task
// onto the run queue (a send nobody waits on at once) and enters a blocking
// section, and two workers heading into the sleep protocol. The pool is the one the stalls were seen in: a
// core quota of 1, and enough lingering spares (`live` 3, `target` 2) that
// the head-count never calls for a spare, so the push is all there is to
// wake anybody for.

struct WakeModel {
    /// Tasks in the run queue.
    queued: AtomicUsize,
    ran: AtomicUsize,
    blocked: AtomicUsize,
    idle: AtomicUsize,
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
            sleepers: Mutex::new(Vec::new()),
            notified: [const { AtomicBool::new(false) }; 3],
        }
    }

    /// Claim a queued task, if there is one, and run it.
    fn take(&self) -> bool {
        let claim = |n: usize| n.checked_sub(1);
        let claimed = self
            .queued
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, claim);
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
        if idle == 0 {
            return;
        }
        let blocked = self.blocked.load(Ordering::Relaxed);
        if Self::LIVE.saturating_sub(blocked).saturating_sub(idle) >= Self::QUOTA {
            return;
        }
        if let Some(sleeper) = self.sleepers.lock().unwrap().pop() {
            self.notified[sleeper].store(true, Ordering::SeqCst);
        }
    }

    /// A push, then `blocking` on a worker: leave `active`. The push's own
    /// `maybe_wake` is made while the pusher still counts as active.
    /// `decide_first` is the order that stalled — that decision, then the
    /// count (whose head-count, `LIVE - 1 >= target`, compensates nothing),
    /// and no second look.
    fn push_then_block(&self, decide_first: bool) {
        self.queued.fetch_add(1, Ordering::Release);
        self.maybe_wake();
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
//    UID can never allocate duplicate or out-of-order versions;
// 4. the leader notifies only when a caller waits — followers and
//    `flush` count themselves in `waiters` under the queue lock before
//    they park, and the leader reads the count under the same lock after
//    it moved `complete` or stepped down — and still no ticket and no
//    `flush` is stranded.

struct CommitQueueModel {
    pending: Vec<(u64, u32)>,
    leader: bool,
    next_ticket: u64,
    complete: u64,
    waiters: u32,
}

impl CommitQueueModel {
    /// Mirror of `CommitQueue::wake`.
    fn wake(&self, done: &loom::sync::Condvar) {
        if self.waiters > 0 {
            done.notify_all();
        }
    }
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
                waiters: 0,
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
                q.waiters += 1;
                while q.complete <= ticket {
                    q = self.done.wait(q).unwrap();
                }
                q.waiters -= 1;
                return;
            }
            q.leader = true;
        }
        self.lead();
    }

    /// Mirror of `LogInner::flush`: wait out any leader, after which every
    /// ticket issued is complete.
    fn flush(&self) {
        let mut q = self.q.lock().unwrap();
        q.waiters += 1;
        while q.leader {
            q = self.done.wait(q).unwrap();
        }
        q.waiters -= 1;
        assert_eq!(q.complete, q.next_ticket, "flush passed a live batch");
    }

    /// Mirror of `LogInner::lead`: drive batches until the queue drains.
    fn lead(&self) {
        loop {
            let batch = {
                let mut q = self.q.lock().unwrap();
                if q.pending.is_empty() {
                    q.leader = false;
                    q.wake(&self.done);
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
            q.wake(&self.done);
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
        // A `flush` racing the submitters: it parks while a leader
        // drives and must be woken when the last one steps down.
        let flusher = {
            let model = model.clone();
            thread::spawn(move || model.flush())
        };
        for s in submitters {
            s.join().unwrap();
        }
        flusher.join().unwrap();

        let q = model.q.lock().unwrap();
        let log = model.log.lock().unwrap();
        let index = model.index.lock().unwrap();
        let total = (SUBMITTERS * PER_SUBMITTER) as u64;

        // Invariant 2: every ticket completed, nobody left leading.
        assert_eq!(q.next_ticket, total);
        assert_eq!(q.complete, total);
        assert!(!q.leader);
        assert!(q.pending.is_empty());
        assert_eq!(q.waiters, 0, "a waiter never counted itself out");

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
