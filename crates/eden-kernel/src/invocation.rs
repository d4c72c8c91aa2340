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

use eden_core::{EdenError, Metrics, OpName, Result, Uid, Value};

/// The default deadline used by synchronous waits. Generous enough that it
/// only fires on genuine deadlock or teardown, not on slow machines.
pub const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A request to perform a named operation with a parameter value.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The operation name.
    pub op: OpName,
    /// The operation parameter (often a record).
    pub arg: Value,
}

impl Invocation {
    /// Build an invocation.
    pub fn new(op: impl Into<OpName>, arg: Value) -> Self {
        Invocation {
            op: op.into(),
            arg,
        }
    }
}

/// States of a [`ReplyCell`]. `SETTLED` and `ABANDONED` are terminal, and
/// only the settling half writes them.
mod cell {
    /// No reply yet and nobody asleep on the cell.
    pub const EMPTY: u8 = 0;
    /// No reply yet; the awaiting half published its thread handle and is
    /// asleep (or about to be).
    pub const WAITING: u8 = 1;
    /// The reply is in the value slot.
    pub const SETTLED: u8 = 2;
    /// The settling half was dropped without replying.
    pub const ABANDONED: u8 = 3;
}

/// The one-shot rendezvous behind a reply pair: one allocation shared by
/// a [`Settler`] and an [`Awaiter`], a state word, the value slot, and the
/// waiter's thread handle — published, and unparked, only when the waiter
/// actually went to sleep. A reply that is already there when the waiter
/// looks costs one swap and one load. It also holds what settling needs to
/// know about the invocation, written once when the pair is made, so the
/// [`ReplyHandle`] that travels in the envelope is one pointer to it.
struct ReplyCell {
    state: AtomicU8,
    /// When true, settling meters the outcome ledger (`successes` /
    /// `fatal_failures`). The kernel sets it for plain invocations;
    /// driver-owned (retrying) invocations leave it false and let the
    /// driver meter the *terminal* outcome exactly once.
    meters_outcome: bool,
    /// The Eject the invocation went to: what an abandoned cell reports as
    /// crashed.
    responder: Uid,
    metrics: Metrics,
    /// The invocation's overall deadline as an absolute instant, when one
    /// was set via `InvokeOptions::deadline`. Admission control reads it on
    /// the send path: a `Park` sender bounds its wait for mailbox space by
    /// it, and `DeadlineDrop` evicts queued envelopes once it has passed.
    admit_by: Option<Instant>,
    /// Written once by the settler before it publishes `SETTLED`; taken by
    /// the awaiter after it observes `SETTLED`.
    value: UnsafeCell<Option<Result<Value>>>,
    /// Written by the awaiter before it publishes `WAITING`; taken by the
    /// settler after its terminal swap observed `WAITING`.
    waiter: UnsafeCell<Option<Thread>>,
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
// an Acquire read of `SETTLED`; `waiter` is the awaiter's except between
// its Release CAS `EMPTY -> WAITING` and either its own CAS back to `EMPTY`
// or the settler's Acquire swap that observed `WAITING`, after which it is
// the settler's. Each half is a unique, non-`Clone` owner (`Settler` is
// consumed by settling, `Awaiter` is reached only through `&mut`/by value),
// so neither slot ever has two accessors. Every other field is written
// only before the cell is shared.
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

    /// Publish a terminal state and wake the waiter if it is asleep.
    fn finish(&self, terminal: u8) {
        // eden-lint: ordering(reply-cell)
        if self.0.state.swap(terminal, Ordering::AcqRel) == cell::WAITING {
            // SAFETY: the swap observed `WAITING`, so the awaiter's write
            // of the handle happened-before and it will not touch the slot
            // again (its deregistering CAS now fails).
            if let Some(thread) = unsafe { (*self.0.waiter.get()).take() } {
                thread.unpark();
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
pub struct Awaiter(Arc<ReplyCell>);

/// What a wait looks at to give up early; whoever makes it true unparks the waiter.
pub(crate) type Stop<'a> = &'a dyn Fn() -> bool;

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
            cell::SETTLED => Some(
                unsafe { (*self.0.value.get()).take() }.unwrap_or(Err(EdenError::Timeout)),
            ),
            cell::ABANDONED => Some(Err(EdenError::EjectCrashed(self.0.responder))),
            _ => None,
        }
    }

    /// Sleep until the outcome is known, or (`None`) `budget` passes or `stop` holds.
    fn wait_for(&mut self, budget: Duration, stop: Stop) -> Option<Result<Value>> {
        if let Some(outcome) = self.try_take() {
            return Some(outcome);
        }
        if budget.is_zero() {
            return None;
        }
        // A budget too large to add to the clock is no deadline at all.
        let deadline = Instant::now().checked_add(budget);
        // SAFETY: the state is `EMPTY` as far as this half knows, and the
        // settler reads the slot only after observing `WAITING`.
        unsafe { *self.0.waiter.get() = Some(std::thread::current()) };
        // eden-lint: ordering(reply-cell)
        let registered = self.0.state.compare_exchange(
            cell::EMPTY,
            cell::WAITING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if registered.is_err() {
            return self.try_take();
        }
        // A rendezvous point: a scheduler worker asleep here counts as
        // blocked so the pool can compensate with a spare. `unpark` leaves
        // a token if it wins the race with `park`, so no wake-up is lost; a
        // stale token from an earlier cell only costs one more loop.
        crate::sched::blocking(|| {
            while !self.is_terminal() && !stop() {
                match deadline.map(|at| at.saturating_duration_since(Instant::now())) {
                    Some(Duration::ZERO) => break,
                    // eden-lint: timer(deadline)
                    Some(left) => std::thread::park_timeout(left),
                    None => std::thread::park(),
                }
            }
        });
        // Deregister. Losing this CAS means the settler got there first:
        // the outcome is in, however late.
        // eden-lint: ordering(reply-cell)
        match self.0.state.compare_exchange(
            cell::WAITING,
            cell::EMPTY,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => None,
            Err(_) => self.try_take(),
        }
    }
}

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
        &self.tx.as_ref().expect("an unanswered handle holds its settler").0
    }

    /// The invocation's absolute deadline, if one was set.
    pub(crate) fn admit_by(&self) -> Option<Instant> {
        self.cell().admit_by
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
    pub fn responder(&self) -> Uid {
        self.cell().responder
    }

    /// What the scheduler knows this handle's reply cell by (never 0 for an
    /// unanswered handle): it watches for the handler it is dispatching to
    /// settle exactly this cell.
    pub(crate) fn cell_id(&self) -> usize {
        self.tx.as_ref().map_or(0, Settler::id)
    }

    /// Resolve the waiting side with `err` without metering a reply and
    /// without `Drop`'s crash default. The cached invocation path uses this
    /// when a stale route's target no longer exists anywhere: the uncached
    /// path reports such errors at send time without counting a reply, and
    /// the cached path must be metrically indistinguishable. The outcome
    /// ledger still settles: the logical invocation terminally failed.
    pub(crate) fn resolve_silent(mut self, err: EdenError) {
        if let Some(tx) = self.tx.take() {
            self.complete_obs(false);
            tx.settle(Err(err));
        }
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

    /// Whether the outcome is known. The probe a call hands the scheduler:
    /// its callee's inline resume ends once this reads true.
    pub(crate) fn is_settled(&self) -> bool {
        match self {
            PendingReply::Waiting(rx) => rx.is_terminal(),
            PendingReply::Ready(_) | PendingReply::Retrying(_) => true,
        }
    }

    /// Block until the reply arrives or `deadline` elapses. For a retrying
    /// reply, `deadline` bounds the whole affair — attempts, backoff
    /// pauses, and re-sends together.
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
                rx.wait_for(deadline, &|| false)
                    .unwrap_or(Err(EdenError::Timeout))
            }
            // eden-lint: timer(deadline)
            PendingReply::Retrying(state) => state.wait_timeout(deadline),
        }
    }

    /// Wait up to `budget`, or until `stop` holds, without consuming the handle: `None` if the
    /// reply has not arrived yet; after one `Some`, further polls yield `Timeout`.
    pub(crate) fn poll_timeout(&mut self, budget: Duration, stop: Stop) -> Option<Result<Value>> {
        match self {
            PendingReply::Ready(r) => Some(r.take().unwrap_or(Err(EdenError::Timeout))),
            PendingReply::Waiting(rx) => rx.wait_for(budget, stop),
            PendingReply::Retrying(state) => state.poll_timeout(budget, stop),
        }
    }

    /// Check for the reply without blocking. Returns `self` back if the
    /// reply has not arrived yet.
    pub fn try_wait(self) -> std::result::Result<Result<Value>, PendingReply> {
        match self {
            PendingReply::Ready(mut r) => Ok(r.take().unwrap_or(Err(EdenError::Timeout))),
            PendingReply::Waiting(mut rx) => match rx.try_take() {
                Some(result) => Ok(result),
                None => Err(PendingReply::Waiting(rx)),
            },
            PendingReply::Retrying(state) => state.try_wait().map_err(PendingReply::Retrying),
        }
    }
}

/// Create a connected reply pair for an invocation of `responder`.
pub fn reply_pair(responder: Uid, metrics: Metrics) -> (ReplyHandle, PendingReply) {
    reply_pair_with(responder, metrics, false, None, None)
}

/// [`reply_pair`] as the kernel's dispatch path makes it: whether settling
/// meters the outcome ledger (non-driver invocations), the invocation's
/// absolute deadline, and the observability tag when the plane is enabled.
pub(crate) fn reply_pair_with(
    responder: Uid,
    metrics: Metrics,
    meters_outcome: bool,
    admit_by: Option<Instant>,
    obs: Option<Box<crate::obs::ObsTag>>,
) -> (ReplyHandle, PendingReply) {
    let cell = Arc::new(ReplyCell {
        state: AtomicU8::new(cell::EMPTY),
        meters_outcome,
        responder,
        metrics,
        admit_by,
        value: UnsafeCell::new(None),
        waiter: UnsafeCell::new(None),
    });
    (
        ReplyHandle {
            tx: Some(Settler(Arc::clone(&cell))),
            obs,
        },
        PendingReply::Waiting(Awaiter(cell)),
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
        let mut p = p;
        assert!(p
            .poll_timeout(Duration::from_millis(1), &|| false)
            .is_none());
        go.send(()).unwrap();
        assert_eq!(p.wait().unwrap().as_str().unwrap(), "late");
        t.join().unwrap();
        assert_eq!(m.snapshot().deferred_replies, 1);
    }

    #[test]
    fn handle_dropped_while_the_waiter_is_registered_reads_as_crash() {
        let u = Uid::fresh();
        let (h, mut p) = reply_pair(u, Metrics::new());
        let (go, gone) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            gone.recv().unwrap();
            drop(h);
        });
        assert!(p
            .poll_timeout(Duration::from_millis(1), &|| false)
            .is_none());
        go.send(()).unwrap();
        assert_eq!(p.wait().unwrap_err(), EdenError::EjectCrashed(u));
        t.join().unwrap();
    }

    #[test]
    fn reply_after_a_timed_out_poll_is_delivered_once() {
        let (h, mut p) = reply_pair(Uid::fresh(), Metrics::new());
        assert!(p
            .poll_timeout(Duration::from_millis(1), &|| false)
            .is_none());
        h.reply(Ok(Value::from(7)));
        assert_eq!(
            p.poll_timeout(Duration::ZERO, &|| false),
            Some(Ok(Value::Int(7)))
        );
        assert_eq!(
            p.poll_timeout(Duration::ZERO, &|| false),
            Some(Err(EdenError::Timeout))
        );
    }

    #[test]
    fn a_poll_ends_when_its_stop_is_set_and_its_thread_unparked() {
        let (_h, mut p) = reply_pair(Uid::fresh(), Metrics::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (stopper, waiter) = (stop.clone(), std::thread::current());
        let t = std::thread::spawn(move || {
            stopper.store(true, std::sync::atomic::Ordering::SeqCst);
            waiter.unpark();
        });
        let stopped = || stop.load(std::sync::atomic::Ordering::SeqCst);
        assert!(p.poll_timeout(Duration::from_secs(600), &stopped).is_none());
        assert!(stopped());
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
        let pair = || reply_pair_with(Uid::fresh(), m.clone(), true, None, None);
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

    #[test]
    fn error_replies_carry_no_bytes() {
        let m = Metrics::new();
        let (h, p) = reply_pair(Uid::fresh(), m.clone());
        h.reply(Err(EdenError::EndOfStream));
        assert_eq!(p.wait().unwrap_err(), EdenError::EndOfStream);
        assert_eq!(m.snapshot().bytes_replied, 0);
    }
}
