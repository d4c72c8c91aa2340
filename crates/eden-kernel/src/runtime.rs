//! What a coordinator receives, and how one invocation is dispatched.
//!
//! Each Eject "has its own thread of control and may be thought of as active
//! at all times" (§1). The coordinator receives envelopes — invocations,
//! internal events from the Eject's own worker processes, and kernel control
//! messages — and dispatches them one at a time to the behaviour; the loop
//! that does so is the scheduler's resume loop ([`crate::sched`]).

use eden_core::op::ops;
use eden_core::{EdenError, Value};

use crate::behavior::EjectBehavior;
use crate::context::EjectContext;
use crate::invocation::{Invocation, ReplyHandle};

/// A message in an Eject's mailbox. Envelopes live by value in the ring and
/// are moved four times a hop, so the size is pinned by a test below.
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

/// Dispatch one invocation, intercepting the runtime-provided operations.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_envelope_is_an_invocation_and_two_words() {
        // 256 and 200 while the handle carried its metrics, deadline and
        // observability tag inline.
        assert!(std::mem::size_of::<Envelope>() <= 72);
        assert!(std::mem::size_of::<ReplyHandle>() <= 16);
    }
}
