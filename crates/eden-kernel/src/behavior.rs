//! The Eject behaviour trait: "a fixed piece of code that defines the set
//! of invocations to which the Eject will respond" (§1).

use eden_core::{EdenError, Result, Value};

use crate::context::EjectContext;
use crate::invocation::{Invocation, ReplyHandle};

/// The type-code of an Eject.
///
/// An implementation defines the abstract machine of §2: "the inputs are the
/// invocations it receives, and the outputs are the replies to those
/// invocations". An idle Eject is its behaviour box parked on its mailbox and
/// costs no thread; a delivery queues it, and a pool worker
/// ([`SchedulerConfig::workers`](crate::SchedulerConfig)) resumes it and
/// dispatches its mail one envelope at a time. Successive envelopes may run on
/// different threads (hence `Send`) but never two at once, so `&mut self`
/// methods need no internal locking. A handler may block — wrap a wait the
/// kernel cannot see in [`blocking`](crate::blocking) and the pool lends a
/// spare thread for its duration — and a handler that
/// [`call`](EjectContext::call)s another Eject may find its callee run as a
/// call on its own stack (see [`replies_last`](EjectBehavior::replies_last)).
///
/// Three invocations are handled by the runtime itself and never reach
/// [`handle`](EjectBehavior::handle): `Checkpoint` (serialises
/// [`passive_representation`](EjectBehavior::passive_representation) to the
/// stable store), `Deactivate` (stops the coordinator; the Eject survives as
/// its passive representation if it ever checkpointed, and otherwise
/// disappears — exactly the fate of the paper's bootstrap `UnixFile`
/// Ejects), and `Describe` (replies with
/// [`type_name`](EjectBehavior::type_name)).
pub trait EjectBehavior: Send + 'static {
    /// The Eden type name of this behaviour. Used by `Describe` and by the
    /// type registry for reactivation.
    fn type_name(&self) -> &'static str;

    /// Called once when the Eject starts running — both on first spawn and
    /// on reactivation from a passive representation. "When an Eject is
    /// activated by the kernel it will normally attempt to put its internal
    /// data structures into a consistent state" (§1).
    fn activate(&mut self, ctx: &EjectContext) {
        let _ = ctx;
    }

    /// Handle one invocation. Reply inline via `reply.reply(..)`, or park
    /// the handle for a deferred reply (passive output).
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle);

    /// Whether this behaviour's reply is its handlers' last act: once
    /// [`handle`](EjectBehavior::handle) has answered the invocation it was
    /// given, it waits for nothing more — no reply, no sleep, no lock another
    /// handler may hold, no room in a full mailbox — before it returns.
    /// Answering other, parked handles, bookkeeping and sends that are not
    /// waited for are all fine, and so is not answering at all:
    /// [`mark_deferred`](ReplyHandle::mark_deferred), park the handle, return.
    ///
    /// Asked once, before the Eject starts (and again on reactivation), and
    /// it is the scheduler's whole test of a callee: when anybody — a handler
    /// or a process's step on a pool worker, a user's thread —
    /// [`call`](crate::Kernel::call)s a parked Eject that says `true`, the
    /// calling thread runs the callee then and there, nested on the caller's
    /// stack, instead of queueing it for another thread and sleeping — the
    /// first invocation included. There the caller goes on when the callee's
    /// handler *returns*, whenever it replied, which is why the promise is what
    /// it is. An Eject that says `false`, the default, is never run that way;
    /// it loses nothing but the shortcut.
    ///
    /// A behaviour that says `true` and waits after its reply all the same is
    /// wrong. A debug build crashes that Eject at the wait (its caller already
    /// has the reply). A release build does not check: the caller is held
    /// until the handler returns, and a wait for a reply from an Eject
    /// suspended beneath it on the same stack — its caller, say — fails at
    /// once with `Timeout` rather than deadlocking.
    fn replies_last(&self) -> bool {
        false
    }

    /// Handle an internal event: the next step of one of this Eject's
    /// processes, posted by the coordinator to itself
    /// ([`nudge`](EjectContext::nudge)); a reply a step waits for, come in
    /// ([`poll_reply`](EjectContext::poll_reply)); or a word from a process
    /// thread. Internal events model the paper's language-level
    /// interprocess communication within an Eject.
    fn internal(&mut self, ctx: &EjectContext, event: Value) {
        let _ = (ctx, event);
    }

    /// The state to write to stable storage on `Checkpoint`. Returning
    /// `None` means this Eject does not checkpoint (and therefore vanishes
    /// on crash or deactivation).
    fn passive_representation(&self) -> Option<Value> {
        None
    }

    /// Reactivation: apply one entry this Eject [`journal`]ed after the
    /// checkpoint its constructor was just run on. Called once per entry,
    /// oldest first, before [`activate`](EjectBehavior::activate). A type
    /// that journals overrides it; one that does not is never asked.
    ///
    /// [`journal`]: EjectContext::journal
    fn redo(&mut self, entry: Value) -> Result<()> {
        let _ = entry;
        let refused = format!("`{}` keeps no journal to redo", self.type_name());
        Err(EdenError::Application(refused))
    }

    /// Whether this Eject runs unasked, a process that nobody invokes: it is
    /// reactivated "when it is next invoked" (§7), and its crash is that
    /// invocation — the kernel reactivates it from its checkpoint at once.
    /// Asked as it crashes.
    fn drives_itself(&self) -> bool {
        false
    }

    /// Called when the coordinator is about to stop (deactivation, crash
    /// envelope, or kernel shutdown). Behaviours that own process threads
    /// should unblock them here; the coordinator joins them afterwards.
    fn deactivating(&mut self, ctx: &EjectContext) {
        let _ = ctx;
    }
}

impl std::fmt::Debug for dyn EjectBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EjectBehavior({})", self.type_name())
    }
}
