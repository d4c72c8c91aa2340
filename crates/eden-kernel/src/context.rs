//! The execution context handed to Eject behaviours and their worker
//! processes.
//!
//! "Each Eject is provided with multiple processes, of which some may be
//! waiting for incoming invocations, some may be waiting for replies to
//! invocations, and some may be running" (§1). In this reproduction the
//! coordinator process is supplied by the kernel (a task its scheduler
//! resumes) and behaviours may spawn additional worker processes through
//! [`EjectContext::spawn_process`]. Workers communicate with the coordinator
//! by posting internal events, which are metered separately from invocations
//! — that distinction is the heart of the paper's cost argument.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eden_core::{EdenError, Metrics, OpName, Result, Uid, Value};
use parking_lot::Mutex;

use crate::invocation::{PendingReply, DEFAULT_REPLY_TIMEOUT};
use crate::kernel::{NodeId, WeakKernel};
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
    pub(crate) kernel: WeakKernel,
    pub(crate) mailbox: MailboxSender,
    pub(crate) metrics: Metrics,
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
        &self.metrics
    }

    /// A kernel handle, if the kernel is still alive. Behaviours use this
    /// to spawn sibling Ejects (e.g. a file minting a reader stream).
    pub fn kernel(&self) -> Option<crate::kernel::Kernel> {
        self.kernel.upgrade()
    }

    /// Send an invocation without suspending (returns a [`PendingReply`]).
    pub fn invoke(&self, target: Uid, op: impl Into<OpName>, arg: Value) -> PendingReply {
        match self.kernel.upgrade() {
            Some(kernel) => kernel.invoke_from(self.node, target, op.into(), arg),
            None => PendingReply::ready(Err(EdenError::KernelShutdown)),
        }
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
        match self.kernel.upgrade() {
            Some(kernel) => kernel.invoke_with_from(self.node, target, op.into(), arg, opts),
            None => PendingReply::ready(Err(EdenError::KernelShutdown)),
        }
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
        match self.kernel.upgrade() {
            Some(kernel) => {
                kernel.invoke_cached(self.node, cache, target, op.into(), arg, true, false, None, None)
            }
            None => PendingReply::ready(Err(EdenError::KernelShutdown)),
        }
    }

    /// Invoke and wait for the reply, as one act — which lets the kernel run
    /// the callee as a call on this thread where it can (see
    /// [`Kernel::call`](crate::kernel::Kernel::call)). Otherwise
    /// [`invoke`](Self::invoke) followed by [`wait`](PendingReply::wait).
    pub fn call(&self, target: Uid, op: impl Into<OpName>, arg: Value) -> Result<Value> {
        self.kernel.call(self.node, None, target, op.into(), arg).wait()
    }

    /// [`call`](Self::call) through a caller-owned [`RouteCache`].
    pub fn call_routed(
        &self,
        cache: &mut RouteCache,
        target: Uid,
        op: impl Into<OpName>,
        arg: Value,
    ) -> Result<Value> {
        self.kernel.call(self.node, Some(cache), target, op.into(), arg).wait()
    }

    /// Post an internal event back to this Eject's own coordinator. The
    /// event arrives via [`EjectBehavior::internal`].
    ///
    /// [`EjectBehavior::internal`]: crate::behavior::EjectBehavior::internal
    pub fn post_internal(&self, event: Value) -> Result<()> {
        self.internal_sender().send(event)
    }

    /// A cloneable handle that worker processes use to post internal events
    /// to this Eject's coordinator.
    pub fn internal_sender(&self) -> InternalSender {
        InternalSender {
            tx: self.mailbox.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Spawn a worker process belonging to this Eject.
    ///
    /// The worker runs until its closure returns; it should poll
    /// [`ProcessContext::should_stop`] (or rely on its channels
    /// disconnecting) so that deactivation does not hang. The coordinator
    /// joins all workers when the Eject stops.
    pub fn spawn_process<F>(&self, name: &str, body: F)
    where
        F: FnOnce(ProcessContext) + Send + 'static,
    {
        let pctx = ProcessContext {
            eject: self.uid,
            node: self.node,
            type_name: self.type_name,
            kernel: self.kernel.clone(),
            internal: self.internal_sender(),
            stop: Arc::clone(&self.stop),
        };
        // Workers inherit the spawner's ambient span: a pump spawned while
        // a pipeline's root span is ambient sends its invocations inside
        // that trace (§1's internal processes stay causally attributable).
        let ambient = eden_core::span::current();
        let handle = std::thread::Builder::new()
            .name(format!("{}:{}", self.uid, name))
            .spawn(move || {
                let _span = ambient.map(|ctx| eden_core::span::enter(Some(ctx)));
                body(pctx)
            })
            .expect("spawning a worker thread failed");
        self.workers.lock().push(handle);
    }

    /// Write `representation` to stable storage as this Eject's passive
    /// representation ("the checkpoint primitive is the only mechanism
    /// provided by the Eden kernel whereby an Eject may access stable
    /// storage", §1).
    pub fn checkpoint(&self, representation: &Value) -> Result<()> {
        let kernel = self.kernel.upgrade().ok_or(EdenError::KernelShutdown)?;
        kernel.stable_write(self.uid, Some(self.type_name), representation)
    }

    /// The same primitive, said incrementally: extend this Eject's passive
    /// representation by one `entry`, as durable on return as a checkpoint.
    /// Reactivation hands the entries written since the last checkpoint to
    /// [`redo`](crate::EjectBehavior::redo), oldest first, after the type's
    /// constructor has run on it. Refused before the first checkpoint; and
    /// after an `Err` from either, which may or may not have landed, say the
    /// same again or checkpoint — an entry extends what the store holds.
    pub fn journal(&self, entry: &Value) -> Result<()> {
        let kernel = self.kernel.upgrade().ok_or(EdenError::KernelShutdown)?;
        kernel.stable_write(self.uid, None, entry)
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

    /// Set the stop flag and unpark the processes: one may sleep in `wait_or_stop`.
    pub(crate) fn begin_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.workers.lock().iter().for_each(|w| w.thread().unpark());
    }

    /// Join this Eject's worker processes. They may need other Ejects
    /// (hence the pool) to make progress before they exit, so a pool
    /// worker reaping the Eject counts as blocked meanwhile — but only
    /// when there is somebody to wait for: most Ejects have no processes,
    /// a stream's pumps have returned by the time it is torn down, and a
    /// death that waits for nothing asks the pool for nothing. Never the
    /// calling thread: a process that calls its own Eject (directly or down
    /// a chain of calls) may be the thread that runs it, and so the one
    /// that reaps it. It exits on its own once this returns.
    pub(crate) fn join_workers(&self) {
        let current = std::thread::current().id();
        let mut handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        handles.retain(|handle| handle.thread().id() != current);
        // A worker that panicked already printed its message; the
        // coordinator should still reap the rest.
        let (finished, running): (Vec<_>, Vec<_>) =
            handles.into_iter().partition(JoinHandle::is_finished);
        for handle in finished {
            // eden-lint: nonblocking(the thread has returned; the join only collects it)
            let _ = handle.join();
        }
        if running.is_empty() {
            return;
        }
        crate::sched::blocking(|| {
            for handle in running {
                let _ = handle.join();
            }
        });
    }
}

/// A cloneable sender for intra-Eject (language-level) messages.
#[derive(Clone)]
#[derive(Debug)]
pub struct InternalSender {
    tx: MailboxSender,
    metrics: Metrics,
}

impl InternalSender {
    /// Post an internal event to the owning Eject's coordinator.
    pub fn send(&self, event: Value) -> Result<()> {
        self.metrics.record_internal_message();
        self.tx
            .send(Envelope::Internal(event))
            // Internal events are stream data, never shed: admission control
            // parks the sender instead (see `mailbox::ShedPolicy`), so the
            // outcome is always plain delivery.
            .map(|_| ())
            .map_err(|_| EdenError::KernelShutdown)
    }
}

/// Context available to a worker process spawned with
/// [`EjectContext::spawn_process`].
#[derive(Debug, Clone)]
pub struct ProcessContext {
    eject: Uid,
    node: NodeId,
    type_name: &'static str,
    kernel: WeakKernel,
    internal: InternalSender,
    stop: Arc<AtomicBool>,
}

impl ProcessContext {
    /// The UID of the Eject this process belongs to.
    pub fn eject(&self) -> Uid {
        self.eject
    }

    /// Send an invocation on behalf of the owning Eject.
    pub fn invoke(&self, target: Uid, op: impl Into<OpName>, arg: Value) -> PendingReply {
        match self.kernel.upgrade() {
            Some(kernel) => kernel.invoke_from(self.node, target, op.into(), arg),
            None => PendingReply::ready(Err(EdenError::KernelShutdown)),
        }
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
        match self.kernel.upgrade() {
            Some(kernel) => kernel.invoke_with_from(self.node, target, op.into(), arg, opts),
            None => PendingReply::ready(Err(EdenError::KernelShutdown)),
        }
    }

    /// As [`invoke`](Self::invoke), but through a caller-owned
    /// [`RouteCache`]: repeat invocations of the same target skip the
    /// kernel registry. This is the hot path for stream connections, which
    /// invoke one upstream Eject thousands of times.
    pub fn invoke_routed(
        &self,
        cache: &mut RouteCache,
        target: Uid,
        op: impl Into<OpName>,
        arg: Value,
    ) -> PendingReply {
        match self.kernel.upgrade() {
            Some(kernel) => {
                kernel.invoke_cached(self.node, cache, target, op.into(), arg, true, false, None, None)
            }
            None => PendingReply::ready(Err(EdenError::KernelShutdown)),
        }
    }

    /// Invoke and wait for the reply, as one act — which lets the kernel run
    /// the callee as a call on this process's own thread where it can (see
    /// [`Kernel::call`](crate::kernel::Kernel::call)). Otherwise
    /// [`invoke`](Self::invoke) followed by
    /// [`wait_or_stop`](Self::wait_or_stop).
    pub fn call(&self, target: Uid, op: impl Into<OpName>, arg: Value) -> Result<Value> {
        self.wait_or_stop(self.kernel.call(self.node, None, target, op.into(), arg))
    }

    /// [`call`](Self::call) through a caller-owned [`RouteCache`]: the hot
    /// path of a stream pump, which calls one peer thousands of times.
    pub fn call_routed(
        &self,
        cache: &mut RouteCache,
        target: Uid,
        op: impl Into<OpName>,
        arg: Value,
    ) -> Result<Value> {
        self.wait_or_stop(self.kernel.call(self.node, Some(cache), target, op.into(), arg))
    }

    /// Write `representation` to stable storage as the owning Eject's
    /// passive representation. Worker-driven Ejects (pumps) use this to
    /// record stream progress from the worker itself, so a crash between
    /// pump steps resumes from the last acknowledged position.
    pub fn checkpoint(&self, representation: &Value) -> Result<()> {
        let kernel = self.kernel.upgrade().ok_or(EdenError::KernelShutdown)?;
        kernel.stable_write(self.eject, Some(self.type_name), representation)
    }

    /// Extend the owning Eject's passive representation by one `entry` (see
    /// [`EjectContext::journal`]).
    pub fn journal(&self, entry: &Value) -> Result<()> {
        let kernel = self.kernel.upgrade().ok_or(EdenError::KernelShutdown)?;
        kernel.stable_write(self.eject, None, entry)
    }

    /// Post an internal event to the owning Eject's coordinator.
    pub fn post_internal(&self, event: Value) -> Result<()> {
        self.internal.send(event)
    }

    /// Wait until the reply settles, the Eject starts stopping, or the default deadline passes.
    ///
    /// Long-running workers must use this (or poll
    /// [`should_stop`](Self::should_stop) themselves) so that deactivation
    /// and shutdown do not stall behind a reply that will never come.
    pub fn wait_or_stop(&self, mut pending: PendingReply) -> Result<Value> {
        let stop = || self.should_stop();
        // A reply that is in already (a call ran inline) costs no clock read.
        if let Some(result) = pending.poll_timeout(Duration::ZERO, &stop) {
            return result;
        }
        let deadline = Instant::now() + DEFAULT_REPLY_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match pending.poll_timeout(left, &stop) {
                Some(result) => return result,
                None if stop() => return Err(EdenError::KernelShutdown),
                None if left.is_zero() => return Err(EdenError::Timeout),
                None => {}
            }
        }
    }

    /// True once the Eject is stopping; long-running workers must exit.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}
