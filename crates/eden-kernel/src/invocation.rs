//! Invocations and replies.
//!
//! "An invocation is a request to perform some named operation, and may be
//! thought of as a kind of remote procedure call" (§1). Two properties of
//! Eden invocation shape this module:
//!
//! 1. **Sending does not suspend the sender** — so [`PendingReply`] is a
//!    handle the sender may hold while doing other work (or wait on
//!    immediately, recovering synchronous RPC).
//! 2. **Replies are first-class on the receiving side** — an Eject may park
//!    a [`ReplyHandle`] and reply long after the handling code returned.
//!    This "deferred reply" is precisely the paper's *passive output*: a
//!    source sits on outstanding `Read` invocations ("a partial vacuum, in
//!    the form of outstanding read invocations") and answers them when data
//!    becomes available.
//!
//! The invoker's identity is deliberately absent from [`Invocation`]: §5 of
//! the paper argues that "the effect of a particular invocation ought to
//! depend only on its parameters, and not on the identity of the invoker",
//! since consulting the sender would prohibit dynamic redirection.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use eden_core::{EdenError, Metrics, OpName, Result, Shelf, Uid, Value};

use crate::context::InternalSender;
use crate::options::Step;

/// The default deadline used by synchronous waits. Generous enough that it
/// only fires on genuine deadlock or teardown, not on slow machines.
pub(crate) const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A request to perform a named operation with a parameter value.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The operation name.
    pub op: OpName,
    /// The operation parameter (often a record).
    pub arg: Value,
}

/// States of a [`ReplyCell`]. `SETTLED` and `ABANDONED` are terminal, and
/// only the settling half writes them.
mod cell {
    /// No reply yet and nobody asleep on the cell.
    pub(crate) const EMPTY: u8 = 0;
    /// No reply yet; the awaiting half published its [`Waiter`](super::Waiter):
    /// its thread, asleep (or about to be), or its Eject's mailbox.
    pub(crate) const WAITING: u8 = 1;
    /// The reply is in the value slot.
    pub(crate) const SETTLED: u8 = 2;
    /// The settling half was dropped without replying.
    pub(crate) const ABANDONED: u8 = 3;
}

/// Who the settler tells that the outcome is in: a thread asleep on the
/// cell, unparked; or the sending Eject, posted one internal event.
enum Waiter {
    Thread(Thread),
    Mailbox(InternalSender),
}

/// The one-shot rendezvous behind a reply pair: one allocation shared by
/// a [`Settler`] and an [`Awaiter`] (and kept by the awaiting thread, once
/// both are done with it, for its next pair), a state word, the value slot,
/// and the [`Waiter`] — published, and told, only when the awaiting half
/// has actually stopped to wait. A reply that is already there when the waiter
/// looks costs one swap and one load. It also holds what settling needs to
/// know about the invocation, written once when the pair is made, so the
/// [`ReplyHandle`] that travels in the envelope is one pointer to it.
pub(crate) struct ReplyCell {
    state: AtomicU8,
    /// When true, settling meters the outcome ledger (`successes` /
    /// `fatal_failures`). The kernel sets it for plain invocations;
    /// driver-owned (retrying) invocations leave it false and let the
    /// driver meter the *terminal* outcome exactly once.
    meters_outcome: bool,
    /// The Eject the invocation went to: what an abandoned cell reports as
    /// crashed.
    responder: Uid,
    /// The handle settling meters through: the sending thread's own, where
    /// it has one, so taking and dropping it writes no shared line.
    metrics: Arc<Metrics>,
    /// Written once by the settler before it publishes `SETTLED`; taken by
    /// the awaiter after it observes `SETTLED`.
    value: UnsafeCell<Option<Result<Value>>>,
    /// Written by the awaiter before it publishes `WAITING`; taken by the
    /// settler after its terminal swap observed `WAITING`, or by the
    /// awaiter after its own CAS took `WAITING` back.
    waiter: UnsafeCell<Option<Waiter>>,
}

impl ReplyCell {
    fn meter_outcome(&self, ok: bool) {
        if self.meters_outcome {
            if ok {
                self.metrics.record_success();
            } else {
                self.metrics.record_fatal_failure();
            }
        }
    }
}

// SAFETY: the two `UnsafeCell`s are handed over through `state`. `value` is
// the settler's until its Release swap to `SETTLED` and the awaiter's after
// an Acquire read of `SETTLED`. `waiter` is the awaiter's except between
// its Release CAS `EMPTY -> WAITING` and either its own CAS back to `EMPTY`
// or the settler's Acquire swap that observed `WAITING`, after which it is
// the settler's — of either kind. A mailbox waiter may stay registered
// across calls, so the awaiter writes the slot only from `EMPTY` (`WAITING`
// means its own registration stands), and its drop takes the slot back by
// that CAS. The settler reads the slot only after its swap, so a post follows
// the value's publication. Each half is a unique, non-`Clone` owner
// (`Settler` is consumed by settling, `Awaiter` is reached only through
// `&mut`/by value), so neither slot ever has two accessors. Every other
// field is written only before the cell is shared.
unsafe impl Send for ReplyCell {}
unsafe impl Sync for ReplyCell {}

/// The settling half of a [`ReplyCell`]. Dropping it unsettled abandons
/// the cell, so the waiter can never be left asleep on a reply nobody is
/// going to send — not even when the replying side panics mid-reply.
/// Either way the outcome ledger is settled before the outcome is
/// published.
struct Settler(Arc<ReplyCell>);

impl Settler {
    fn settle(self, result: Result<Value>) {
        self.0.meter_outcome(result.is_ok());
        // SAFETY: `self` is the only settler and no terminal state is
        // published yet, so the awaiter does not read the slot.
        unsafe { *self.0.value.get() = Some(result) };
        self.finish(cell::SETTLED);
    }

    /// Publish a terminal state, then tell the waiter if one is registered.
    fn finish(&self, terminal: u8) {
        // eden-lint: ordering(reply-cell)
        if self.0.state.swap(terminal, Ordering::AcqRel) == cell::WAITING {
            // SAFETY: the swap observed `WAITING`, so the awaiter's write
            // of the waiter happened-before and it will not touch the slot
            // again (its deregistering CAS now fails).
            match unsafe { (*self.0.waiter.get()).take() } {
                Some(Waiter::Thread(thread)) => thread.unpark(),
                Some(Waiter::Mailbox(mailbox)) => mailbox.wake(),
                None => {}
            }
        }
        crate::sched::note_settled(self.id());
    }

    /// The cell's identity while it is alive: its address.
    fn id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }
}

impl Drop for Settler {
    fn drop(&mut self) {
        // Only this half writes terminal states, so a relaxed read of our
        // own earlier swap is exact.
        if self.0.state.load(Ordering::Relaxed) < cell::SETTLED {
            self.0.meter_outcome(false);
            self.finish(cell::ABANDONED);
        }
    }
}

impl std::fmt::Debug for Settler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Settler").finish_non_exhaustive()
    }
}

/// The awaiting half of a [`ReplyCell`] (the payload of
/// [`PendingReply::Waiting`]).
pub struct Awaiter(std::mem::ManuallyDrop<Arc<ReplyCell>>);

impl Awaiter {
    /// Whether the outcome is known (replied or abandoned).
    fn is_terminal(&self) -> bool {
        // eden-lint: ordering(reply-cell)
        self.0.state.load(Ordering::Acquire) >= cell::SETTLED
    }

    /// The outcome, if it is known. Yields it once.
    fn try_take(&mut self) -> Option<Result<Value>> {
        // eden-lint: ordering(reply-cell)
        match self.0.state.load(Ordering::Acquire) {
            // SAFETY: `SETTLED` was read with Acquire, so the settler's
            // write is visible and the slot is ours.
            cell::SETTLED => {
                Some(unsafe { (*self.0.value.get()).take() }.unwrap_or(Err(EdenError::Timeout)))
            }
            cell::ABANDONED => Some(Err(EdenError::EjectCrashed(self.0.responder))),
            _ => None,
        }
    }

    /// Publish `waiter` and move `EMPTY -> WAITING`; `false` if the
    /// outcome came in first, and the slot is this half's again.
    fn register(&mut self, waiter: Waiter) -> bool {
        // SAFETY: the state is `EMPTY` (every caller has just read it so, and
        // only this half leaves it but for a terminal state), and the
        // settler reads the slot only after observing `WAITING`.
        unsafe { *self.0.waiter.get() = Some(waiter) };
        // eden-lint: ordering(reply-cell)
        let registered = self.0.state.compare_exchange(
            cell::EMPTY,
            cell::WAITING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if registered.is_err() {
            // SAFETY: the settler's swap replaced `EMPTY`, so it never
            // looks at the slot.
            unsafe { (*self.0.waiter.get()).take() };
        }
        registered.is_ok()
    }

    /// Take a registered waiter back (`WAITING -> EMPTY`): no post or wake
    /// will come. `false` if none was, or the settler took it first.
    fn withdraw(&mut self) -> bool {
        // eden-lint: ordering(reply-cell)
        let withdrawn = self.0.state.load(Ordering::Relaxed) == cell::WAITING
            && self
                .0
                .state
                .compare_exchange(
                    cell::WAITING,
                    cell::EMPTY,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok();
        if withdrawn {
            // SAFETY: the CAS took `WAITING` back before the settler's swap,
            // which will therefore not look at the slot.
            unsafe { (*self.0.waiter.get()).take() };
        }
        withdrawn
    }

    /// The outcome, if it is in; otherwise `mailbox` is posted one internal
    /// event once it is (a registration made earlier stands).
    pub(crate) fn post_when_settled(&mut self, mailbox: &InternalSender) -> Option<Result<Value>> {
        // eden-lint: ordering(reply-cell)
        match self.0.state.load(Ordering::Acquire) {
            cell::WAITING => None,
            cell::EMPTY if self.register(Waiter::Mailbox(mailbox.clone())) => None,
            _ => self.try_take(),
        }
    }

    /// Sleep until the outcome is known, or `budget` passes (`Timeout`).
    fn wait_for(&mut self, budget: Duration) -> Result<Value> {
        // A mailbox registration gives way to the thread that now waits.
        self.withdraw();
        if budget.is_zero() || self.is_terminal() {
            return self.try_take().unwrap_or(Err(EdenError::Timeout));
        }
        // A budget too large to add to the clock is no deadline at all.
        let deadline = Instant::now().checked_add(budget);
        if self.register(Waiter::Thread(std::thread::current())) {
            // A rendezvous point: a scheduler worker asleep here counts as
            // blocked so the pool can compensate with a spare. `unpark`
            // leaves a token if it wins the race with `park`, so no wake-up
            // is lost; a stale token from an earlier cell only costs one
            // more loop.
            crate::sched::blocking(|| {
                while !self.is_terminal() {
                    match deadline.map(|at| at.saturating_duration_since(Instant::now())) {
                        Some(Duration::ZERO) => break,
                        // eden-lint: timer(deadline)
                        Some(left) => std::thread::park_timeout(left),
                        None => std::thread::park(),
                    }
                }
            });
            // Losing the deregistration means the settler got there first:
            // the outcome is in, however late.
            if self.withdraw() {
                return Err(EdenError::Timeout);
            }
        }
        self.try_take().unwrap_or(Err(EdenError::Timeout))
    }
}

impl Drop for Awaiter {
    /// A mailbox nobody will ask again for is taken back: nothing is posted
    /// to it, and the cell does not keep it. A cell the settler has let go
    /// of is reset and kept for this thread's next pair.
    fn drop(&mut self) {
        self.withdraw();
        // SAFETY: taken once, here, and `self.0` is not used again.
        let cell = unsafe { std::mem::ManuallyDrop::take(&mut self.0) };
        let reset = |c: &mut ReplyCell| {
            (*c.state.get_mut(), *c.value.get_mut(), *c.waiter.get_mut()) =
                (cell::EMPTY, None, None);
        };
        // SAFETY: no `Weak` of a reply cell is ever made.
        let _ = unsafe { Shelf::retire(&CELLS, cell, reset) };
    }
}

thread_local!(static CELLS: Shelf<ReplyCell> = const { Shelf::empty() });

impl std::fmt::Debug for Awaiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Awaiter")
            .field("responder", &self.0.responder)
            .finish_non_exhaustive()
    }
}

/// The replying half of an invocation. Consumed by [`ReplyHandle::reply`].
///
/// If the handle is dropped without replying — the Eject crashed, was shut
/// down, or simply forgot — the waiting party receives
/// [`EdenError::EjectCrashed`] rather than hanging.
#[derive(Debug)]
pub struct ReplyHandle {
    /// `Some` until the handle is answered, which consumes it.
    tx: Option<Settler>,
    /// Observability tag, attached only by a kernel with an observability
    /// plane. Boxed: one allocation per traced invocation keeps the handle
    /// two words, so every envelope a kernel moves and queues is 72 bytes,
    /// traced or not.
    obs: Option<Box<crate::obs::ObsTag>>,
}

impl ReplyHandle {
    /// Deliver the reply, consuming the handle.
    pub fn reply(mut self, result: Result<Value>) {
        if let Some(tx) = self.tx.take() {
            let bytes = match &result {
                Ok(v) => v.size_hint(),
                Err(_) => 0,
            };
            tx.0.metrics.record_reply(bytes);
            self.complete_obs(result.is_ok());
            // The waiter may have given up (timeout); that is not an error
            // on the replying side — the value dies with the cell.
            tx.settle(result);
        }
    }

    /// Complete the observability span, before the outcome is published.
    /// Idempotent: the tag is `take`n.
    fn complete_obs(&mut self, ok: bool) {
        if let Some(tag) = self.obs.take() {
            tag.plane.complete(&tag, ok);
        }
    }

    /// The cell this handle settles. Only answering takes the settler, and
    /// answering consumes the handle.
    fn cell(&self) -> &ReplyCell {
        &self
            .tx
            .as_ref()
            .expect("an unanswered handle holds its settler")
            .0
    }

    /// Mark the moment a coordinator picked this invocation out of its
    /// mailbox: splits queue wait from service time, and returns a guard
    /// installing the invocation's span as the thread's ambient span (so
    /// invocations sent *while handling this one* become its children).
    /// With the scheduler's resume instants, where it stamps them:
    /// `(rq_enq, pickup)` are when the owning task was
    /// pushed onto the run queue and when a worker picked it up. The slice
    /// of queue time between those two — bounded below by the envelope's
    /// own enqueue time, since an envelope delivered to an already-queued
    /// task waited for less than the whole run-queue stint — is attributed
    /// to `sched_wait` rather than mailbox queueing, keeping
    /// queue + sched + service an exact decomposition of the span.
    pub(crate) fn begin_service_at(
        &mut self,
        sched: Option<(std::time::Instant, std::time::Instant)>,
    ) -> Option<eden_core::span::AmbientGuard> {
        let tag = self.obs.as_deref_mut()?;
        if tag.dequeued.is_none() {
            tag.dequeued = Some(std::time::Instant::now());
            if let Some((rq_enq, pickup)) = sched {
                let baseline = rq_enq.max(tag.enqueued);
                tag.sched_ns = pickup.saturating_duration_since(baseline).as_nanos() as u64;
            }
        }
        tag.plane
            .config()
            .spans
            .then(|| eden_core::span::enter(Some(tag.ctx)))
    }

    /// Note that this reply is being parked for later (metrics only).
    ///
    /// Call this when storing the handle instead of replying inline; it lets
    /// the experiments count how much passive output is in flight.
    pub fn mark_deferred(&self) {
        self.cell().metrics.record_deferred_reply();
    }

    /// The UID of the Eject this handle belongs to (the responder).
    pub(crate) fn responder(&self) -> Uid {
        self.cell().responder
    }

    /// What the scheduler knows this handle's reply cell by (never 0 for an
    /// unanswered handle): it watches for the handler it is dispatching to
    /// settle exactly this cell.
    pub(crate) fn cell_id(&self) -> usize {
        self.tx.as_ref().map_or(0, Settler::id)
    }

    /// Resolve the waiting side with `err` without metering a reply and
    /// without `Drop`'s crash default: how a shed invocation is answered.
    /// Its span completes as failed, and the outcome ledger still settles.
    pub(crate) fn resolve_silent(mut self, err: EdenError) {
        if let Some(tx) = self.tx.take() {
            self.complete_obs(false);
            tx.settle(Err(err));
        }
    }

    /// [`resolve_silent`](Self::resolve_silent), for an invocation whose
    /// stale route bounced it to a target that no longer exists: answered
    /// as the registry refuses a missing target at send time, with no span
    /// and no stage-histogram sample.
    pub(crate) fn refuse(mut self, err: EdenError) {
        self.obs = None;
        self.resolve_silent(err);
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        self.complete_obs(false);
        // `tx`, dropped next if unanswered, abandons the cell: the waiter
        // reads `EjectCrashed(responder)`.
    }
}

/// The waiting half of an invocation.
///
/// Holding a `PendingReply` costs nothing; the sender is free to perform
/// other work ("the sending of an invocation does not suspend the execution
/// of the sending Eject", §1).
#[derive(Debug)]
pub enum PendingReply {
    /// The reply will arrive in this cell.
    Waiting(Awaiter),
    /// The outcome was known at send time (e.g. no such Eject).
    Ready(Option<Result<Value>>),
    /// A reply governed by a retry policy or deadline (see
    /// [`InvokeOptions`](crate::InvokeOptions)): retryable failures are
    /// re-sent by whichever wait/poll call observes them, so the sender
    /// still never suspends.
    Retrying(Box<crate::options::RetryState>),
}

impl PendingReply {
    /// A reply that is already resolved.
    pub fn ready(result: Result<Value>) -> Self {
        PendingReply::Ready(Some(result))
    }

    /// Block until the reply arrives, with the default deadline. A plain
    /// wait: it runs nobody. A sender that means "send, then wait" and wants
    /// it executed as the call it is says [`Kernel::call`](crate::Kernel::call)
    /// (or its context's `call`), where that is decided at the send.
    pub fn wait(self) -> Result<Value> {
        // eden-lint: timer(deadline)
        self.wait_timeout(DEFAULT_REPLY_TIMEOUT)
    }

    /// Whether the outcome (a retrying reply's attempt in flight) is known.
    /// The probe a call hands the scheduler: its inline resume ends then.
    pub(crate) fn is_settled(&self) -> bool {
        match self {
            PendingReply::Waiting(rx) => rx.is_terminal(),
            PendingReply::Ready(_) => true,
            PendingReply::Retrying(state) => state.inner.is_settled(),
        }
    }

    /// Block until the reply arrives or `deadline` elapses. For a retrying
    /// reply, `deadline` bounds the whole affair — attempts, backoff
    /// pauses, and re-sends together: this thread sleeps on each attempt's
    /// cell, and through each pause before a re-send.
    pub fn wait_timeout(self, deadline: Duration) -> Result<Value> {
        match self {
            PendingReply::Ready(mut r) => r.take().unwrap_or(Err(EdenError::Timeout)),
            PendingReply::Waiting(mut rx) => {
                // A reply this thread's own stack keeps from being sent is
                // not worth sleeping for.
                let deadline = if crate::sched::strands_responder(rx.0.responder) {
                    Duration::ZERO
                } else {
                    deadline
                };
                rx.wait_for(deadline)
            }
            PendingReply::Retrying(mut state) => {
                let until = Instant::now().checked_add(deadline);
                let left = |at: Instant| at.saturating_duration_since(Instant::now());
                loop {
                    match state.step(until, None) {
                        Step::Done(result) => return result,
                        Step::InFlight(end) => {
                            let attempt = std::mem::replace(&mut state.inner, Self::Ready(None));
                            // eden-lint: timer(deadline)
                            state.inner =
                                Self::ready(attempt.wait_timeout(end.map_or(deadline, left)));
                        }
                        // eden-lint: timer(backoff)
                        Step::Paused(at) => crate::sched::blocking(|| std::thread::sleep(left(at))),
                    }
                }
            }
        }
    }

    /// Check for the reply without blocking. Returns `self` back if the
    /// reply has not arrived yet — or, retrying, while an attempt is out or
    /// the next is not yet due.
    pub fn try_wait(mut self) -> std::result::Result<Result<Value>, PendingReply> {
        self.poll(None).ok_or(self)
    }

    /// The outcome if it is in, re-sending what a retry has due; it never
    /// waits. Otherwise `None`, and `to`, if given, is posted once the
    /// reply may have moved: registered on the attempt's cell, and armed on
    /// the kernel's timer for a retry's pause and deadline.
    pub(crate) fn poll(&mut self, to: Option<&InternalSender>) -> Option<Result<Value>> {
        match self {
            PendingReply::Ready(r) => Some(r.take().unwrap_or(Err(EdenError::Timeout))),
            PendingReply::Waiting(rx) => match to {
                Some(mailbox) => rx.post_when_settled(mailbox),
                None => rx.try_take(),
            },
            PendingReply::Retrying(state) => match state.step(None, to) {
                Step::Done(result) => {
                    *self = PendingReply::Ready(None);
                    Some(result)
                }
                Step::InFlight(_) | Step::Paused(_) => None,
            },
        }
    }
}

/// Create a connected reply pair for an invocation of `responder`.
pub fn reply_pair(responder: Uid, metrics: Metrics) -> (ReplyHandle, PendingReply) {
    reply_pair_with(reply_cell(responder, &Arc::new(metrics), false), None)
}

/// The cell of a pair for an invocation of `responder`: one this thread
/// retired, if that meters through `metrics` too, or a new one.
pub(crate) fn reply_cell(
    responder: Uid,
    metrics: &Arc<Metrics>,
    meters_outcome: bool,
) -> Arc<ReplyCell> {
    let fill = |c: &mut ReplyCell| (c.meters_outcome, c.responder) = (meters_outcome, responder);
    Shelf::reuse(&CELLS, |c| Arc::ptr_eq(&c.metrics, metrics), fill).unwrap_or_else(|| {
        Arc::new(ReplyCell {
            state: AtomicU8::new(cell::EMPTY),
            meters_outcome,
            responder,
            metrics: Arc::clone(metrics),
            value: UnsafeCell::new(None),
            waiter: UnsafeCell::new(None),
        })
    })
}

/// The two halves of `cell`, and the observability tag if there is one.
pub(crate) fn reply_pair_with(
    cell: Arc<ReplyCell>,
    obs: Option<Box<crate::obs::ObsTag>>,
) -> (ReplyHandle, PendingReply) {
    (
        ReplyHandle {
            tx: Some(Settler(Arc::clone(&cell))),
            obs,
        },
        PendingReply::Waiting(Awaiter(std::mem::ManuallyDrop::new(cell))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_roundtrip() {
        let m = Metrics::new();
        let (h, p) = reply_pair(Uid::fresh(), m.clone());
        h.reply(Ok(Value::from(42)));
        assert_eq!(p.wait().unwrap(), Value::Int(42));
        assert_eq!(m.snapshot().replies, 1);
    }

    #[test]
    fn dropped_handle_yields_crash_error() {
        let u = Uid::fresh();
        let (h, p) = reply_pair(u, Metrics::new());
        drop(h);
        assert_eq!(p.wait().unwrap_err(), EdenError::EjectCrashed(u));
    }

    #[test]
    fn deferred_reply_from_another_thread() {
        let m = Metrics::new();
        let (h, p) = reply_pair(Uid::fresh(), m.clone());
        h.mark_deferred();
        // The replier goes only once it is told to, and it is told to only
        // after a first wait came back empty: the reply is late by
        // construction, not by a sleep.
        let (go, gone) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            gone.recv().unwrap();
            h.reply(Ok(Value::str("late")));
        });
        let p = p.try_wait().expect_err("the reply is not in yet");
        go.send(()).unwrap();
        assert_eq!(p.wait().unwrap().as_str().unwrap(), "late");
        t.join().unwrap();
        assert_eq!(m.snapshot().deferred_replies, 1);
    }

    #[test]
    fn handle_dropped_while_the_waiter_is_registered_reads_as_crash() {
        let u = Uid::fresh();
        let (h, p) = reply_pair(u, Metrics::new());
        let (go, gone) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            gone.recv().unwrap();
            drop(h);
        });
        go.send(()).unwrap();
        assert_eq!(p.wait().unwrap_err(), EdenError::EjectCrashed(u));
        t.join().unwrap();
    }

    #[test]
    fn wait_timeout_fires() {
        let (_h, p) = reply_pair(Uid::fresh(), Metrics::new());
        assert_eq!(
            p.wait_timeout(Duration::from_millis(10)).unwrap_err(),
            EdenError::Timeout
        );
    }

    #[test]
    fn try_wait_returns_pending_then_value() {
        let (h, p) = reply_pair(Uid::fresh(), Metrics::new());
        let p = match p.try_wait() {
            Err(pending) => pending,
            Ok(_) => panic!("reply should not be ready yet"),
        };
        h.reply(Ok(Value::Unit));
        match p.try_wait() {
            Ok(result) => assert_eq!(result.unwrap(), Value::Unit),
            Err(_) => panic!("reply should be ready"),
        }
    }

    #[test]
    fn ready_reply_resolves_immediately() {
        let p = PendingReply::ready(Ok(Value::from(1)));
        assert_eq!(p.wait().unwrap(), Value::Int(1));
    }

    #[test]
    fn the_ledger_settles_once_on_every_path() {
        let m = Metrics::new();
        let pair = || reply_pair_with(reply_cell(Uid::fresh(), &Arc::new(m.clone()), true), None);
        let (h, _p) = pair();
        h.reply(Ok(Value::Unit));
        let (h, _p) = pair();
        h.reply(Err(EdenError::EndOfStream));
        let (h, _p) = pair();
        h.resolve_silent(EdenError::Timeout);
        let (h, _p) = pair();
        drop(h);
        let s = m.snapshot();
        assert_eq!((s.successes, s.fatal_failures, s.replies), (1, 3, 2));
    }

    /// A coordinator's mailbox attached to no task: what a settle posts
    /// stays in its ring, to be counted.
    fn mailbox() -> (InternalSender, crate::mailbox::MailboxSender) {
        let (tx, _core) = crate::mailbox::mailbox(None);
        (
            InternalSender {
                tx: tx.clone(),
                metrics: Metrics::new(),
            },
            tx,
        )
    }

    impl PendingReply {
        fn post_when_settled(&mut self, mailbox: &InternalSender) -> Option<Result<Value>> {
            match self {
                PendingReply::Waiting(rx) => rx.post_when_settled(mailbox),
                _ => unreachable!("a reply pair's pending half waits"),
            }
        }
    }

    #[test]
    fn a_registered_mailbox_is_posted_once_after_the_outcome() {
        let (internal, ring) = mailbox();
        let (h, mut p) = reply_pair(Uid::fresh(), Metrics::new());
        assert!(p.post_when_settled(&internal).is_none());
        // Asked again before the outcome: the registration stands.
        assert!(p.post_when_settled(&internal).is_none());
        std::thread::spawn(move || h.reply(Ok(Value::from(7))))
            .join()
            .unwrap();
        assert_eq!(ring.depth(), 1);
        assert_eq!(p.post_when_settled(&internal), Some(Ok(Value::Int(7))));
        assert_eq!(ring.depth(), 1);
    }

    #[test]
    fn an_outcome_already_in_registers_nothing() {
        let (internal, ring) = mailbox();
        let u = Uid::fresh();
        let (h, mut p) = reply_pair(u, Metrics::new());
        drop(h);
        assert_eq!(
            p.post_when_settled(&internal),
            Some(Err(EdenError::EjectCrashed(u)))
        );
        assert_eq!(ring.depth(), 0);
    }

    #[test]
    fn a_dropped_awaiter_takes_its_mailbox_back() {
        let (internal, ring) = mailbox();
        let (h, mut p) = reply_pair(Uid::fresh(), Metrics::new());
        assert!(p.post_when_settled(&internal).is_none());
        drop(p);
        h.reply(Ok(Value::Unit));
        assert_eq!(ring.depth(), 0, "a withdrawn mailbox was posted");
    }

    #[test]
    fn a_thread_that_waits_takes_over_from_a_mailbox() {
        let (internal, ring) = mailbox();
        let (h, mut p) = reply_pair(Uid::fresh(), Metrics::new());
        assert!(p.post_when_settled(&internal).is_none());
        assert_eq!(
            p.wait_timeout(Duration::from_millis(1)),
            Err(EdenError::Timeout)
        );
        h.reply(Ok(Value::Unit));
        assert_eq!(
            ring.depth(),
            0,
            "the mailbox was posted after a thread took over"
        );
    }

    /// Runs `f` on a thread of its own: no cell retired on it yet.
    fn on_a_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    /// A pair metering through `m` and its outcome ledger.
    fn pair(m: &Arc<Metrics>) -> (ReplyHandle, PendingReply) {
        reply_pair_with(reply_cell(Uid::fresh(), m, true), None)
    }

    /// A cell a thread keeps holds its kernel's handle: the holders of
    /// `m` beyond the caller's own are the cells alive or kept.
    fn cells_on(m: &Arc<Metrics>) -> usize {
        Arc::strong_count(m) - 1
    }

    #[test]
    fn a_retired_cell_with_an_unread_outcome_reads_only_the_next_one() {
        on_a_fresh_thread(|| {
            let m = Arc::new(Metrics::new());
            let (h, p) = pair(&m);
            let cell = h.cell_id();
            h.reply(Ok(Value::from(1)));
            drop(p);
            assert_eq!(cells_on(&m), 1, "the settled cell was not kept");
            let (h, p) = pair(&m);
            assert_eq!(h.cell_id(), cell, "the kept cell was not reused");
            let p = p.try_wait().expect_err("the old outcome was read again");
            h.reply(Ok(Value::from(2)));
            assert_eq!(p.wait(), Ok(Value::Int(2)));
            assert_eq!(m.snapshot().successes, 2);
        });
    }

    #[test]
    fn a_reused_cell_posts_no_mailbox_withdrawn_before_it_was_retired() {
        on_a_fresh_thread(|| {
            let m = Arc::new(Metrics::new());
            let (internal, ring) = mailbox();
            let (h, mut p) = pair(&m);
            let cell = h.cell_id();
            assert!(p.post_when_settled(&internal).is_none());
            let PendingReply::Waiting(rx) = &mut p else {
                unreachable!("a reply pair's pending half waits")
            };
            assert!(rx.withdraw());
            h.reply(Ok(Value::Unit));
            drop(p);
            let (h, p) = pair(&m);
            assert_eq!(h.cell_id(), cell, "the kept cell was not reused");
            h.reply(Ok(Value::from(3)));
            assert_eq!(p.wait(), Ok(Value::Int(3)));
            assert_eq!(ring.depth(), 0, "a withdrawn mailbox was posted");
        });
    }

    #[test]
    fn an_awaiter_dropped_before_its_settler_keeps_nothing() {
        on_a_fresh_thread(|| {
            let m = Arc::new(Metrics::new());
            let (h, p) = pair(&m);
            drop(p);
            assert_eq!(cells_on(&m), 1, "the settler holds the cell");
            std::thread::spawn(move || h.reply(Ok(Value::Unit)))
                .join()
                .unwrap();
            assert_eq!(cells_on(&m), 0, "a cell was kept with its settler alive");
            let s = m.snapshot();
            assert_eq!((s.replies, s.successes), (1, 1));
        });
    }

    #[test]
    fn pairs_of_two_kernels_on_one_thread_meter_each_its_own() {
        on_a_fresh_thread(|| {
            let (a, b) = (Arc::new(Metrics::new()), Arc::new(Metrics::new()));
            for round in 1..=3 {
                for (m, ok) in [(&a, true), (&b, false)] {
                    let (h, p) = pair(m);
                    let result = if ok {
                        Ok(Value::Unit)
                    } else {
                        Err(EdenError::EndOfStream)
                    };
                    h.reply(result.clone());
                    assert_eq!(p.wait(), result);
                }
                // A thread that moved to the other kernel kept none of this one's.
                assert_eq!((cells_on(&a), cells_on(&b)), (0, 1));
                let (a, b) = (a.snapshot(), b.snapshot());
                assert_eq!(
                    (a.replies, a.successes, a.fatal_failures),
                    (round, round, 0)
                );
                assert_eq!(
                    (b.replies, b.successes, b.fatal_failures),
                    (round, 0, round)
                );
            }
        });
    }

    #[test]
    fn error_replies_carry_no_bytes() {
        let m = Metrics::new();
        let (h, p) = reply_pair(Uid::fresh(), m.clone());
        h.reply(Err(EdenError::EndOfStream));
        assert_eq!(p.wait().unwrap_err(), EdenError::EndOfStream);
        assert_eq!(m.snapshot().bytes_replied, 0);
    }
}
