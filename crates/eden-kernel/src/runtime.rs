//! The per-Eject coordinator loop.
//!
//! Each Eject "has its own thread of control and may be thought of as active
//! at all times" (§1). The coordinator receives envelopes — invocations,
//! internal events from the Eject's own worker processes, and kernel control
//! messages — and dispatches them one at a time to the behaviour.

use eden_core::op::ops;
use eden_core::{EdenError, Value};

use crate::behavior::EjectBehavior;
use crate::context::EjectContext;
use crate::invocation::{Invocation, ReplyHandle};
use crate::kernel::WeakKernel;
use crate::mailbox::MailboxReceiver;
use std::sync::Arc;

/// A message in an Eject's mailbox.
// Envelopes live by value in the mailbox ring; boxing the invocation arm
// to shrink the three control arms would buy nothing (rings size for the
// largest arm anyway) and cost an allocation per send on the hot path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Envelope {
    /// An invocation from another Eject (or from outside the kernel).
    Invocation(Invocation, ReplyHandle),
    /// An intra-Eject event from a worker process.
    Internal(Value),
    /// Fault injection: stop immediately, reply to nothing.
    Crash,
    /// Kernel shutdown: stop immediately.
    Shutdown,
}

impl Envelope {
    /// The admission deadline of an invocation envelope (`None` for
    /// deadline-free invocations and for non-invocation traffic). Read by
    /// the mailbox admission-control path: a `Park` sender bounds its wait
    /// by it, and `DeadlineDrop` evicts entries once it has passed.
    pub(crate) fn admit_by(&self) -> Option<std::time::Instant> {
        match self {
            Envelope::Invocation(_, reply) => reply.admit_by(),
            _ => None,
        }
    }
}

/// Why the coordinator loop ended.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum ExitCause {
    Deactivated,
    Crashed,
    Shutdown,
}

/// Run an Eject to completion. This is the body of the coordinator thread
/// (`threads` execution mode only — scheduler mode runs the same protocol
/// as a state machine in [`crate::sched`]).
pub(crate) fn run_coordinator(
    mut behavior: Box<dyn EjectBehavior>,
    ctx: Arc<EjectContext>,
    mailbox: MailboxReceiver,
    kernel: WeakKernel,
    incarnation: u64,
) {
    behavior.activate(&ctx);
    let cause = loop {
        if ctx.deactivate_requested() {
            break ExitCause::Deactivated;
        }
        // eden-lint: nonblocking(threads-mode coordinator thread, never a pool worker)
        match mailbox.recv() {
            Ok(Envelope::Invocation(inv, mut reply)) => {
                // Stamp the dequeue time (splitting queue wait from service
                // time) and make the invocation's span ambient for the whole
                // dispatch, so invocations sent while handling this one
                // become its children in the trace tree.
                let _span = reply.begin_service();
                dispatch(behavior.as_mut(), &ctx, inv, reply);
            }
            Ok(Envelope::Internal(event)) => behavior.internal(&ctx, event),
            Ok(Envelope::Crash) => break ExitCause::Crashed,
            Ok(Envelope::Shutdown) => break ExitCause::Shutdown,
            // All senders gone: the kernel entry was removed.
            Err(()) => break ExitCause::Shutdown,
        }
    };
    behavior.deactivating(&ctx);
    ctx.begin_stop();
    // Dropping the behaviour releases any parked ReplyHandles, unblocking
    // Ejects (and workers) waiting on this one — required for workers of
    // *other* Ejects to observe teardown and exit, which in turn lets their
    // coordinators join them.
    drop(behavior);
    // Drain the mailbox so queued invocations fail fast instead of waiting
    // for a timeout: dropping their ReplyHandles delivers EjectCrashed.
    while let Some(envelope) = mailbox.try_recv() {
        drop(envelope);
    }
    ctx.join_workers();
    if let Some(kernel) = kernel.upgrade() {
        kernel.on_eject_exit(ctx.uid(), incarnation, cause == ExitCause::Crashed);
    }
}

/// Dispatch one invocation, intercepting the runtime-provided operations.
/// Shared by the coordinator loop above and the scheduler's resume loop.
pub(crate) fn dispatch(
    behavior: &mut dyn EjectBehavior,
    ctx: &EjectContext,
    inv: Invocation,
    reply: ReplyHandle,
) {
    match inv.op.as_str() {
        ops::CHECKPOINT => match behavior.passive_representation() {
            Some(rep) => {
                let result = ctx.checkpoint(&rep).map(|()| Value::Unit);
                reply.reply(result);
            }
            None => reply.reply(Err(EdenError::Application(format!(
                "Eject type `{}` does not checkpoint",
                behavior.type_name()
            )))),
        },
        ops::DEACTIVATE => {
            ctx.metrics().record_deactivation();
            ctx.request_deactivate();
            reply.reply(Ok(Value::Unit));
        }
        ops::DESCRIBE => {
            reply.reply(Ok(Value::str(behavior.type_name())));
        }
        _ => behavior.handle(ctx, inv, reply),
    }
}
