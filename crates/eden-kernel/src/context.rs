//! The execution context handed to Eject behaviours and their processes.
//!
//! "Each Eject is provided with multiple processes, of which some may be
//! waiting for incoming invocations, some may be waiting for replies to
//! invocations, and some may be running" (§1). In this reproduction the
//! coordinator process is supplied by the kernel (a task its scheduler
//! resumes), and a behaviour's further processes are steps it runs from
//! [`internal`](crate::EjectBehavior::internal), posted by the step before
//! ([`EjectContext::nudge`]) or by a reply come in
//! ([`EjectContext::poll_reply`]). Only a program written against a blocking
//! interface gets a thread ([`EjectContext::spawn_process`]). Internal
//! events are metered apart from invocations — the heart of the paper's
//! cost argument.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use eden_core::{EdenError, Metrics, OpName, Result, Uid, Value};
use parking_lot::Mutex;

use crate::invocation::PendingReply;
use crate::kernel::{Kernel, KernelInner, NodeId};
use crate::mailbox::MailboxSender;
use crate::options::InvokeOptions;
use crate::routes::RouteCache;
use crate::runtime::Envelope;

/// Context available to an Eject's coordinator (the `&mut self` methods of
/// its behaviour).
#[derive(Debug)]
pub struct EjectContext {
    pub(crate) uid: Uid,
    pub(crate) node: NodeId,
    pub(crate) type_name: &'static str,
    /// The kernel this Eject runs on, held for its lifetime: every send
    /// borrows it. It is no user handle, so it never stands in the way of
    /// the shutdown that dropping the last one means.
    pub(crate) kernel: Arc<KernelInner>,
    /// This Eject's own mailbox, as its processes post to it.
    pub(crate) internal: InternalSender,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) deactivate: AtomicBool,
    pub(crate) workers: Mutex<Vec<JoinHandle<()>>>,
}

impl EjectContext {
    /// This Eject's UID.
    pub fn uid(&self) -> Uid {
        self.uid
    }

    /// The simulated node this Eject is placed on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The global metrics counters.
    pub fn metrics(&self) -> &Metrics {
        &self.internal.metrics
    }

    /// A kernel handle, if the kernel is still alive. Behaviours use this
    /// to spawn sibling Ejects (e.g. a file minting a reader stream). It is
    /// a user handle like any other: while a behaviour keeps it, the kernel
    /// stays up.
    pub fn kernel(&self) -> Option<Kernel> {
        Kernel::adopt(&self.kernel)
    }

    /// Send an invocation without suspending (returns a [`PendingReply`]).
    pub fn invoke(&self, target: Uid, op: impl Into<OpName>, arg: Value) -> PendingReply {
        self.invoke_with(target, op, arg, InvokeOptions::new())
    }

    /// Send an invocation with explicit [`InvokeOptions`] (deadline, retry
    /// policy, route cache, fault immunity).
    pub fn invoke_with(
        &self,
        target: Uid,
        op: impl Into<OpName>,
        arg: Value,
        opts: InvokeOptions<'_>,
    ) -> PendingReply {
        self.kernel
            .send(self.node, target, op.into(), arg, opts, false)
    }

    /// As [`invoke`](Self::invoke), but through a caller-owned
    /// [`RouteCache`]: repeat invocations of the same target skip the
    /// kernel registry. Semantically identical to `invoke` — stale routes
    /// fall back to the registry (reactivating a passive target) before the
    /// caller can observe anything.
    pub fn invoke_routed(
        &self,
        cache: &mut RouteCache,
        target: Uid,
        op: impl Into<OpName>,
        arg: Value,
    ) -> PendingReply {
        self.invoke_with(target, op, arg, InvokeOptions::new().route_cache(cache))
    }

    /// Invoke and wait for the reply, as one act — which lets the kernel run
    /// the callee as a call on this thread where it can (see
    /// [`Kernel::call`](crate::kernel::Kernel::call)). Otherwise
    /// [`invoke`](Self::invoke) followed by [`wait`](PendingReply::wait).
    pub fn call(&self, target: Uid, op: impl Into<OpName>, arg: Value) -> Result<Value> {
        self.begin_call(target, op, arg, InvokeOptions::new())
            .wait()
    }

    /// [`call`](Self::call) under [`InvokeOptions`] — a route cache, a retry
    /// policy, a deadline — up to the wait: a callee that could run as a call
    /// on this thread has run, and its reply may or may not be in, for
    /// [`poll_reply`](Self::poll_reply). Options change what is sent and how
    /// often, not whether it is a call.
    pub fn begin_call(
        &self,
        target: Uid,
        op: impl Into<OpName>,
        arg: Value,
        opts: InvokeOptions<'_>,
    ) -> PendingReply {
        self.kernel
            .send(self.node, target, op.into(), arg, opts, true)
    }

    /// The outcome of `pending` if it is in. Otherwise `None`, and once it
    /// is in (replied, or abandoned) this Eject is posted one internal event,
    /// `Value::Unit`: keep `pending` and ask again then. Dropping it takes
    /// the registration back. Nothing here waits: a retrying reply re-sends
    /// what is due, and is posted when its attempt is in, when its pause
    /// ends, or at its deadline, which resolves it as a `Timeout`.
    pub fn poll_reply(&self, pending: &mut PendingReply) -> Option<Result<Value>> {
        pending.poll(Some(&self.internal))
    }

    /// Post this Eject one internal event (`Value::Unit`), past any mailbox
    /// bound: how a coordinator cuts a long job into steps, with the
    /// invocations ahead of each handled first.
    pub fn nudge(&self) {
        self.internal.wake();
    }

    /// Spawn a process with a thread of its own — a program written against
    /// a blocking interface — that runs until its closure returns; it should
    /// poll [`ProcessContext::should_stop`] so that deactivation does not
    /// hang. The coordinator joins it when the Eject stops.
    pub fn spawn_process<F>(&self, name: &str, body: F)
    where
        F: FnOnce(ProcessContext) + Send + 'static,
    {
        let pctx = ProcessContext {
            eject: self.uid,
            internal: self.internal.clone(),
            stop: Arc::clone(&self.stop),
        };
        let handle = std::thread::Builder::new()
            .name(format!("{}:{}", self.uid, name))
            .spawn(move || body(pctx))
            .expect("spawning a process thread failed");
        self.workers.lock().push(handle);
    }

    /// Write `representation` to stable storage as this Eject's passive
    /// representation ("the checkpoint primitive is the only mechanism
    /// provided by the Eden kernel whereby an Eject may access stable
    /// storage", §1).
    pub fn checkpoint(&self, representation: &Value) -> Result<()> {
        self.kernel
            .stable_write(self.uid, Some(self.type_name), representation)
    }

    /// The same primitive, said incrementally: extend this Eject's passive
    /// representation by one `entry`, as durable on return as a checkpoint.
    /// Reactivation hands the entries written since the last checkpoint to
    /// [`redo`](crate::EjectBehavior::redo), oldest first, after the type's
    /// constructor has run on it. Refused before the first checkpoint; and
    /// after an `Err` from either, which may or may not have landed, say the
    /// same again or checkpoint — an entry extends what the store holds.
    pub fn journal(&self, entry: &Value) -> Result<()> {
        self.kernel.stable_write(self.uid, None, entry)
    }

    /// Request that this Eject deactivate once the current envelope has
    /// been handled. If it has checkpointed it survives as its passive
    /// representation; otherwise it disappears.
    pub fn request_deactivate(&self) {
        self.deactivate.store(true, Ordering::Release);
    }

    pub(crate) fn deactivate_requested(&self) -> bool {
        self.deactivate.load(Ordering::Acquire)
    }

    /// Set the stop flag that this Eject's processes poll.
    pub(crate) fn begin_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Join this Eject's program threads, which may need other Ejects
    /// (hence the pool) to return: a pool worker reaping the Eject counts
    /// as blocked meanwhile, if there is anybody to wait for.
    pub(crate) fn join_workers(&self) {
        let handles = std::mem::take(&mut *self.workers.lock());
        if !handles.is_empty() {
            // A process that panicked already printed its message.
            crate::sched::blocking(|| handles.into_iter().for_each(|handle| drop(handle.join())));
        }
    }
}

/// A cloneable sender for intra-Eject (language-level) messages.
#[derive(Clone, Debug)]
pub(crate) struct InternalSender {
    pub(crate) tx: MailboxSender,
    pub(crate) metrics: Metrics,
}

impl InternalSender {
    /// Post an internal event to the owning Eject's coordinator.
    pub(crate) fn send(&self, event: Value) -> Result<()> {
        self.metrics.record_internal_message();
        self.tx
            .send(Envelope::Internal(event))
            // Internal events are stream data, never turned away: the
            // mailbox bound counts invocations only.
            .map(|_| ())
            .map_err(|_| EdenError::KernelShutdown)
    }

    /// Post `Value::Unit`: a coordinator posting to itself, or a settler.
    pub(crate) fn wake(&self) {
        let _ = self.send(Value::Unit);
    }
}

/// Context available to a process spawned with
/// [`EjectContext::spawn_process`].
#[derive(Debug, Clone)]
pub struct ProcessContext {
    eject: Uid,
    internal: InternalSender,
    stop: Arc<AtomicBool>,
}

impl ProcessContext {
    /// The UID of the Eject this process belongs to.
    pub fn eject(&self) -> Uid {
        self.eject
    }

    /// Post an internal event to the owning Eject's coordinator.
    pub fn post_internal(&self, event: Value) -> Result<()> {
        self.internal.send(event)
    }

    /// True once the Eject is stopping; long-running processes must exit.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}
