//! The Eden kernel: Eject registry, invocation routing, activation and
//! crash/recovery.
//!
//! The real Eden kernel ran on several VAXen and routed invocations over a
//! 10 Mbit Ethernet; this reproduction runs every Eject as a thread in one
//! process and models distribution with [`NodeId`] placement, a remote
//! invocation counter, and optional injected latency. The observable
//! semantics the paper relies on are preserved:
//!
//! * invocation is location independent — callers name a [`Uid`], never a
//!   machine;
//! * "if a passive eject is sent an invocation, the Eden kernel will
//!   activate it" (§1) — see [`Kernel::register_type`];
//! * checkpointed state survives crashes; an Eject that never checkpointed
//!   disappears when it deactivates or crashes (the fate of §7's `UnixFile`
//!   Ejects).
//!
//! # The invocation plane
//!
//! Routing is split into a **resolve** step (find or reactivate the target,
//! under a registry lock) and a **dispatch** step (meter, inject
//! latency, send — with *no* lock held, so injected latency on one
//! invocation can never serialise unrelated senders). The registry itself
//! is sharded by UID: concurrent pipelines resolving different targets take
//! different locks, and resolutions of already-active targets take only a
//! shard *read* lock. On top of that, callers that repeatedly invoke the
//! same target can hold a [`RouteCache`](crate::RouteCache) and skip the
//! registry entirely — see [`Kernel::invoke_with_cache`] and the
//! [`routes`](crate::routes) module for the staleness protocol.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;
use eden_core::{wire, EdenError, Metrics, OpName, Result, Uid, Value};
use parking_lot::{Mutex, RwLock};

use crate::behavior::EjectBehavior;
use crate::context::{EjectContext, InternalSender};
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::invocation::{reply_pair_with, Invocation, PendingReply, ReplyHandle};
use crate::mailbox::{mailbox, MailboxSender, SendError, SendOutcome, ShedCause, ShedPolicy};
use crate::obs::{
    KernelSnapshot, Lifecycle, LifecycleRecord, MailboxSnapshot, ObsConfig, ObsPlane, ObsTag,
    SpanRecord, StageSummary,
};
use crate::options::{InvokeOptions, RetryState};
use crate::routes::{Route, RouteCache};
use crate::runtime::Envelope;
use crate::sched::{Scheduler, SchedulerConfig, Task, Woken};
use crate::stable::StableStore;

/// A simulated machine. Ejects placed on different nodes pay the remote
/// invocation surcharge in the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u16);

/// Registry shards: a power of two, so a shard is picked by mask.
const REGISTRY_SHARDS: usize = 16;

/// Construction-time options for a [`Kernel`].
#[derive(Debug, Clone, Default)]
pub struct KernelConfig {
    /// Real latency added to every invocation, local or remote.
    pub invocation_latency: Option<Duration>,
    /// A bound on every Eject's mailbox, and what a full one does. `None`
    /// (the default) keeps the historic unbounded mailboxes; `Some((n,
    /// policy))` bounds each coordinator mailbox to `n` envelopes and runs
    /// `policy` when full: under [`ShedPolicy::Park`] invocation becomes
    /// flow-controlled rather than queue-growing, and a shed surfaces as
    /// the retryable [`EdenError::Overloaded`], so `invoke_with`
    /// retry/backoff composes as client-side rate control. Kernel control
    /// messages (crash, shutdown) bypass the bound so a full mailbox can
    /// never wedge teardown.
    pub mailbox_bound: Option<(usize, ShedPolicy)>,
    /// The observability plane: causal spans, Eject lifecycle events and
    /// per-stage latency histograms (see [`ObsConfig`]). Off by default — a
    /// disabled kernel carries no instrumentation state at all.
    pub observability: ObsConfig,
    /// The worker pool that runs the coordinators (see [`SchedulerConfig`]).
    pub scheduler: SchedulerConfig,
}

/// Fluent construction for a [`Kernel`] — the front door for the
/// scheduler knobs:
///
/// ```no_run
/// use eden_kernel::{Kernel, SchedulerConfig};
///
/// let kernel = Kernel::builder()
///     .scheduler(SchedulerConfig { workers: 4 })
///     .build();
/// ```
#[derive(Debug, Default)]
pub struct KernelBuilder {
    config: KernelConfig,
    stable: Option<StableStore>,
}

impl KernelBuilder {
    /// A builder over the default configuration.
    pub(crate) fn new() -> KernelBuilder {
        KernelBuilder::default()
    }

    /// See [`KernelConfig::scheduler`].
    pub fn scheduler(mut self, config: SchedulerConfig) -> Self {
        self.config.scheduler = config;
        self
    }

    /// See [`KernelConfig::mailbox_bound`].
    pub fn bounded_mailboxes(mut self, capacity: usize, policy: ShedPolicy) -> Self {
        self.config.mailbox_bound = Some((capacity, policy));
        self
    }

    /// See [`KernelConfig::observability`].
    pub fn observability(mut self, obs: ObsConfig) -> Self {
        self.config.observability = obs;
        self
    }

    /// Attach an existing stable store (whole-system restart).
    pub fn stable_store(mut self, store: StableStore) -> Self {
        self.stable = Some(store);
        self
    }

    /// Checkpoint into a log-structured durable store rooted at `path`
    /// on the real filing system (created if missing), with the given
    /// fsync policy. Existing segments are replayed first, so building
    /// the kernel after a cold restart resurrects every passive Eject.
    pub fn durable_store(
        mut self,
        path: impl Into<std::path::PathBuf>,
        fsync: crate::stable::FsyncPolicy,
    ) -> Result<Self> {
        self.stable = Some(StableStore::durable(path, fsync)?);
        Ok(self)
    }

    /// Build the kernel.
    pub fn build(self) -> Kernel {
        let store = self.stable.unwrap_or_default();
        Kernel::with_stable_store(self.config, store)
    }
}

/// A reactivation constructor: turns a decoded passive representation back
/// into a running behaviour.
pub(crate) type TypeFactory =
    Arc<dyn Fn(Option<Value>) -> Result<Box<dyn EjectBehavior>> + Send + Sync>;

/// Whether a UID currently names a running coordinator or a passive
/// representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EjectState {
    /// The Eject has a running coordinator thread.
    Active,
    /// The Eject exists only as its passive representation; the next
    /// invocation will reactivate it.
    Passive,
}

/// Everything the kernel knows about one UID, merged into a single record
/// so resolution touches exactly one shard lock (the old layout spread an
/// Eject across three maps behind three mutexes).
struct Slot {
    state: SlotState,
    node: NodeId,
    /// Increments on every (re)activation and *survives passivation*, so an
    /// exiting incarnation cannot demote its successor and cached routes
    /// can tell incarnations apart.
    incarnation: u64,
}

enum SlotState {
    Active {
        tx: MailboxSender,
        /// The parked-mailbox state machine the scheduler resumes. The slot
        /// is what keeps it alive — the mailbox holds only weak references
        /// back to it, so dropping the slot (after teardown) frees it.
        task: Arc<Task>,
        type_name: &'static str,
    },
    Passive {
        type_name: String,
    },
}

/// One registry shard. Non-mutating resolutions (the overwhelmingly common
/// case: target already active) take the read lock only.
#[derive(Default)]
struct Shard {
    slots: RwLock<HashMap<Uid, Slot>>,
}

/// One row of [`Kernel::list_ejects`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EjectInfo {
    /// The Eject's UID.
    pub uid: Uid,
    /// Running or passive.
    pub state: EjectState,
    /// Its Eden type name.
    pub type_name: String,
    /// Its simulated node.
    pub node: NodeId,
}

pub(crate) struct KernelInner {
    shards: Box<[Shard]>,
    types: Mutex<HashMap<String, TypeFactory>>,
    stable: StableStore,
    metrics: Metrics,
    config: KernelConfig,
    obs: Option<Arc<ObsPlane>>,
    faults: FaultInjector,
    /// The worker pool.
    sched: Arc<Scheduler>,
    shutting_down: AtomicBool,
}

impl KernelInner {
    fn shard(&self, uid: Uid) -> &Shard {
        // Sequence numbers are sequential; a multiply-shift spreads
        // neighbouring UIDs across shards.
        let h = uid.seq().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize & (REGISTRY_SHARDS - 1)]
    }
}

impl Drop for KernelInner {
    fn drop(&mut self) {
        // Reached only when every strong handle (user-visible or the
        // short-lived upgrades inside Eject contexts) is gone. Normally
        // `Kernel::drop` has already shut everything down; this is the
        // backstop for the race where two handles drop concurrently and
        // each thought the other would do it.
        self.shutting_down.store(true, Ordering::Release);
        let mut entries: Vec<(MailboxSender, Arc<Task>)> = Vec::new();
        for shard in self.shards.iter_mut() {
            entries.extend(shard.slots.get_mut().drain().filter_map(|(_, slot)| {
                match slot.state {
                    SlotState::Active { tx, task, .. } => Some((tx, task)),
                    SlotState::Passive { .. } => None,
                }
            }));
        }
        shutdown_entries(entries, &self.sched);
        self.sched.stop();
    }
}

/// Tell every coordinator to stop, release our senders, then wait. The
/// sender release must precede the wait: a coordinator may be blocked
/// waiting for an envelope queued at another (already exited) coordinator
/// to be dropped, which happens only once every sender for that mailbox is
/// gone. Shutdown envelopes bypass any mailbox bound (`force_send`): with
/// bounded mailboxes a plain send could park forever behind a full mailbox
/// whose coordinator is itself waiting to shut down. The entries are
/// awaited via the pool's death latch, which excuses the calling worker's
/// own task (shutdown can be triggered from inside a coordinator).
fn shutdown_entries(entries: Vec<(MailboxSender, Arc<Task>)>, sched: &Scheduler) {
    let send = |(tx, task): (MailboxSender, Arc<Task>)| {
        let _ = tx.force_send(Envelope::Shutdown);
        task
    };
    let tasks: Vec<Arc<Task>> = entries.into_iter().map(send).collect();
    if !tasks.is_empty() {
        sched.wait_all_dead();
    }
    // Dropping `tasks` here releases the dead state machines.
    drop(tasks);
}

/// A weak reference to the kernel, held by Eject contexts so the kernel can
/// shut down when the last user-visible [`Kernel`] handle drops.
#[derive(Clone)]
#[derive(Debug)]
pub(crate) struct WeakKernel(Weak<KernelInner>);

impl WeakKernel {
    /// Upgrade to a full handle if the kernel is still alive.
    pub(crate) fn upgrade(&self) -> Option<Kernel> {
        self.0.upgrade().map(|inner| Kernel { inner })
    }

    /// A call on behalf of an Eject, up to the wait (its contexts differ in
    /// how they wait). The kernel is held for the send only: the callee may
    /// then run on this thread for as long as its handler takes, and a
    /// handle kept that long would stand in the way of the shutdown that
    /// dropping the last user handle means.
    pub(crate) fn call(
        &self,
        from: NodeId,
        cache: Option<&mut RouteCache>,
        target: Uid,
        op: OpName,
        arg: Value,
    ) -> PendingReply {
        match self.upgrade().map(|kernel| kernel.send_call(from, cache, target, op, arg)) {
            Some(sent) => finish_call(sent),
            None => PendingReply::ready(Err(EdenError::KernelShutdown)),
        }
    }
}

/// The second half of a call, between the send and the wait: if the send
/// woke its target, run it here or enqueue it ([`Woken::run_as_call`]). Only
/// then is it checked that the caller may wait at all: the wake must not be
/// lost to the panic that tells a behaviour it may not.
fn finish_call((pending, woken): (PendingReply, Option<Woken>)) -> PendingReply {
    if let Some(woken) = woken {
        woken.run_as_call(&|| pending.is_settled());
    }
    crate::sched::note_wait();
    pending
}

/// Handle to a simulated Eden kernel.
///
/// Clones share the kernel. When the last clone drops, the kernel shuts
/// down: every coordinator receives a shutdown envelope and is joined.
/// Prefer calling [`Kernel::shutdown`] explicitly in tests so teardown
/// problems surface where they happen.
pub struct Kernel {
    inner: Arc<KernelInner>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("ejects", &self.eject_count())
            .field("shards", &self.inner.shards.len())
            .finish_non_exhaustive()
    }
}

impl Clone for Kernel {
    fn clone(&self) -> Self {
        Kernel {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Kernel {
    /// A kernel with default configuration and a fresh stable store.
    pub fn new() -> Self {
        Kernel::with_config(KernelConfig::default())
    }

    /// A kernel with explicit configuration.
    pub fn with_config(config: KernelConfig) -> Self {
        Kernel::with_stable_store(config, StableStore::new())
    }

    /// A kernel attached to an existing stable store — how the tests
    /// simulate whole-system restart: build a new kernel over the old
    /// store and re-register the type constructors. Checkpointed Ejects
    /// from the previous life are immediately invocable (they reactivate
    /// on first invocation).
    pub fn with_stable_store(config: KernelConfig, stable: StableStore) -> Self {
        let shards: Box<[Shard]> = (0..REGISTRY_SHARDS).map(|_| Shard::default()).collect();
        let obs = config
            .observability
            .enabled()
            .then(|| Arc::new(ObsPlane::new(config.observability)));
        let sched = Scheduler::new(config.scheduler, obs.is_some());
        let inner = KernelInner {
            shards,
            types: Mutex::new(HashMap::new()),
            stable,
            metrics: Metrics::new(),
            config,
            obs,
            faults: FaultInjector::default(),
            sched,
            shutting_down: AtomicBool::new(false),
        };
        for uid in inner.stable.uids() {
            if let Ok(rec) = inner.stable.load(uid) {
                inner.shard(uid).slots.write().insert(
                    uid,
                    Slot {
                        state: SlotState::Passive {
                            type_name: rec.type_name,
                        },
                        node: NodeId::default(),
                        incarnation: 0,
                    },
                );
            }
        }
        Kernel {
            inner: Arc::new(inner),
        }
    }

    /// A weak handle for storage inside Eject contexts.
    pub(crate) fn downgrade(&self) -> WeakKernel {
        WeakKernel(Arc::downgrade(&self.inner))
    }

    /// The kernel-wide metrics counters.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// True if the kernel was built with causal span recording on.
    pub fn spans_enabled(&self) -> bool {
        self.inner
            .obs
            .as_ref()
            .is_some_and(|obs| obs.config().spans)
    }

    /// All completed invocation spans, ordered by start time (empty unless
    /// [`ObsConfig::spans`] was set).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .obs
            .as_ref()
            .map(|obs| obs.spans())
            .unwrap_or_default()
    }

    /// Spans evicted from the bounded span store since the kernel started.
    pub fn spans_dropped(&self) -> u64 {
        self.inner
            .obs
            .as_ref()
            .map(|obs| obs.spans_dropped())
            .unwrap_or(0)
    }

    /// The Eject activations and stops still held beside the spans, ordered
    /// by time, and the count their bounded ring has evicted (nothing
    /// unless [`ObsConfig::spans`] was set). A lifecycle record never evicts
    /// a span and is counted in neither [`spans`](Kernel::spans) nor
    /// [`spans_dropped`](Kernel::spans_dropped).
    pub fn lifecycle(&self) -> (Vec<LifecycleRecord>, u64) {
        self.inner
            .obs
            .as_ref()
            .map(|obs| obs.lifecycle())
            .unwrap_or_default()
    }

    /// Per-(Eject, op) latency summaries, busiest first (empty unless
    /// [`ObsConfig::histograms`] was set).
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        self.inner
            .obs
            .as_ref()
            .map(|obs| obs.stage_summaries())
            .unwrap_or_default()
    }

    /// Everything the kernel can report, in one consistent-enough snapshot:
    /// control-plane counters, the process-wide payload and stream planes,
    /// per-stage latency summaries, and span bookkeeping. This is the
    /// source for the Prometheus and JSON export surfaces (see
    /// [`prometheus_text`](crate::prometheus_text) and
    /// [`json_text`](crate::json_text)).
    pub fn metrics_snapshot(&self) -> KernelSnapshot {
        let obs = self.inner.obs.as_ref();
        KernelSnapshot {
            metrics: self.inner.metrics.snapshot(),
            payload: eden_core::payload::snapshot(),
            stream: eden_core::stream::snapshot(),
            stages: obs.map(|o| o.stage_summaries()).unwrap_or_default(),
            spans_recorded: obs.map(|o| o.span_count()).unwrap_or(0),
            spans_dropped: obs.map(|o| o.spans_dropped()).unwrap_or(0),
            sched: self.inner.sched.snapshot(),
            stable: self.inner.stable.stats(),
            mailbox: self.mailbox_snapshot(),
        }
    }

    /// Sample mailbox occupancy across every active Eject. Takes each
    /// registry shard's read lock once plus one mailbox-queue lock per
    /// active slot — cheap enough for a stats poll, and depths across
    /// mailboxes are only consistent per-mailbox (an envelope in flight
    /// between two Ejects may be counted in neither).
    fn mailbox_snapshot(&self) -> MailboxSnapshot {
        let mut snap = MailboxSnapshot::default();
        for shard in self.inner.shards.iter() {
            for slot in shard.slots.read().values() {
                if let SlotState::Active { tx, .. } = &slot.state {
                    let depth = tx.depth() as u64;
                    snap.mailboxes += 1;
                    snap.queued_total += depth;
                    snap.queued_max = snap.queued_max.max(depth);
                }
            }
        }
        snap
    }

    /// A convenient entry point to [`KernelBuilder`].
    pub fn builder() -> KernelBuilder {
        KernelBuilder::new()
    }

    /// The stable store backing this kernel.
    pub fn stable_store(&self) -> &StableStore {
        &self.inner.stable
    }

    /// Register the reactivation constructor for an Eden type. Required
    /// before any Eject of that type can be reactivated from its passive
    /// representation.
    pub fn register_type<F>(&self, type_name: &str, factory: F)
    where
        F: Fn(Option<Value>) -> Result<Box<dyn EjectBehavior>> + Send + Sync + 'static,
    {
        self.inner
            .types
            .lock()
            .insert(type_name.to_owned(), Arc::new(factory));
    }

    /// Create and start an Eject on node 0. Returns its UID.
    pub fn spawn(&self, behavior: Box<dyn EjectBehavior>) -> Result<Uid> {
        self.spawn_on(NodeId::default(), behavior)
    }

    /// Create and start an Eject on a specific simulated node.
    pub fn spawn_on(&self, node: NodeId, behavior: Box<dyn EjectBehavior>) -> Result<Uid> {
        let uid = Uid::fresh();
        self.inner.metrics.record_eject_created();
        // User code, so asked before the shard lock is taken.
        let replies_last = behavior.replies_last();
        let shard = self.inner.shard(uid);
        let mut slots = shard.slots.write();
        self.start_coordinator(&mut slots, uid, node, behavior, replies_last)?;
        Ok(uid)
    }

    /// Send an invocation from outside the Eden system (a "user
    /// terminal"). External callers originate on node 0.
    ///
    /// This is the invocation verb. It returns a [`PendingReply`] ("the
    /// sending of an invocation does not suspend the execution of the
    /// sending Eject", §1), which the sender may hold while it does other
    /// work. A sender with nothing else to do says [`call`](Kernel::call)
    /// instead — the same send, fused with the wait. Deadlines, retry
    /// policy, route caching, and fault immunity are configured through
    /// [`Kernel::invoke_with`].
    pub fn invoke(&self, target: Uid, op: impl Into<OpName>, arg: Value) -> PendingReply {
        self.invoke_inner(NodeId::default(), target, op.into(), arg, true, true, false, None, None)
    }

    /// Invoke and wait for the reply: "a kind of remote procedure call"
    /// (§1), and where it can be, executed as one. A sender that says it
    /// will wait is the one sender that may run its callee itself: if this
    /// send is what wakes `target` from its park, and `target`'s behaviour
    /// declares [`replies_last`](EjectBehavior::replies_last), it is resumed
    /// right here on the calling thread's stack — whatever thread that is —
    /// until the reply is in (counted in
    /// [`SchedSnapshot::inline_handoffs`](crate::SchedSnapshot)), rather than
    /// queued for a pool worker while this thread sleeps. Every other case —
    /// an undeclared target, one that is running or already queued, a reply
    /// it defers — is [`invoke`](Kernel::invoke) followed by
    /// [`wait`](PendingReply::wait), which is what `call` always means.
    pub fn call(&self, target: Uid, op: impl Into<OpName>, arg: Value) -> Result<Value> {
        finish_call(self.send_call(NodeId::default(), None, target, op.into(), arg)).wait()
    }

    /// [`call`](Kernel::call) through a caller-owned [`RouteCache`].
    pub fn call_routed(
        &self,
        cache: &mut RouteCache,
        target: Uid,
        op: impl Into<OpName>,
        arg: Value,
    ) -> Result<Value> {
        finish_call(self.send_call(NodeId::default(), Some(cache), target, op.into(), arg)).wait()
    }

    /// The send half of a call: an ordinary first-attempt send, except that
    /// a wake it wins comes back with the reply instead of being enqueued.
    fn send_call(
        &self,
        from: NodeId,
        cache: Option<&mut RouteCache>,
        target: Uid,
        op: OpName,
        arg: Value,
    ) -> (PendingReply, Option<Woken>) {
        let mut woken = None;
        let wake = Some(&mut woken);
        let pending = match cache {
            Some(cache) => self.invoke_cached(from, cache, target, op, arg, true, false, None, wake),
            None => self.invoke_inner(from, target, op, arg, true, true, false, None, wake),
        };
        (pending, woken)
    }

    /// [`Kernel::invoke`] with explicit [`InvokeOptions`]: an overall
    /// per-invocation deadline, bounded retries with exponential backoff
    /// (driven lazily by whoever waits on the reply), a caller-owned route
    /// cache for the first delivery attempt, and fault-plan immunity.
    pub fn invoke_with(
        &self,
        target: Uid,
        op: impl Into<OpName>,
        arg: Value,
        opts: InvokeOptions<'_>,
    ) -> PendingReply {
        self.invoke_with_from(NodeId::default(), target, op.into(), arg, opts)
    }

    /// The options-bearing invocation path, with an explicit originating
    /// node (Eject contexts pass their own placement).
    pub(crate) fn invoke_with_from(
        &self,
        from: NodeId,
        target: Uid,
        op: OpName,
        arg: Value,
        opts: InvokeOptions<'_>,
    ) -> PendingReply {
        let subject = opts.subject_to_faults();
        // The deadline as an absolute instant, stamped on every delivery
        // attempt's reply handle so the mailbox admission path can see it
        // (deadline-bounded parks).
        let admit_by = opts.deadline.map(|d| std::time::Instant::now() + d);
        if !opts.needs_driver() {
            return match opts.route_cache {
                Some(cache) => {
                    self.invoke_cached(from, cache, target, op, arg, subject, false, None, None)
                }
                None => self.invoke_inner(from, target, op, arg, subject, true, false, None, None),
            };
        }
        // Deadline or retries requested: keep the request around so the
        // reply can re-send it. Value clones are reference bumps (the
        // payload plane), so this costs a few pointers, not a copy.
        let (op_kept, arg_kept) = (op.clone(), arg.clone());
        let inner = match opts.route_cache {
            Some(cache) => {
                self.invoke_cached(from, cache, target, op, arg, subject, true, admit_by, None)
            }
            None => self.invoke_inner(from, target, op, arg, subject, true, true, admit_by, None),
        };
        PendingReply::Retrying(Box::new(RetryState::new(
            self.downgrade(),
            from,
            target,
            op_kept,
            arg_kept,
            opts.retry,
            opts.deadline,
            subject,
            inner,
            self.inner.metrics.clone(),
        )))
    }

    /// Route an invocation originating on `from` to `target`, reactivating
    /// a passive target if necessary.
    pub(crate) fn invoke_from(
        &self,
        from: NodeId,
        target: Uid,
        op: OpName,
        arg: Value,
    ) -> PendingReply {
        self.invoke_inner(from, target, op, arg, true, true, false, None, None)
    }

    /// The uncached delivery path: meter, shutdown check, fault decision,
    /// resolve, dispatch.
    ///
    /// `first_attempt` opens the ledger entry for this *logical*
    /// invocation (`invocations`, `bytes_invoked`); the retry driver's
    /// re-sends pass `false` so a retried invocation counts once however
    /// many times it is re-sent. `driver_owned` marks invocations whose
    /// terminal outcome is settled by a [`RetryState`] — every failure
    /// here is per-attempt, not terminal, so the ledger's outcome side is
    /// left to the driver. `wake` is a call's (see
    /// [`dispatch_route`](Self::dispatch_route)).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn invoke_inner(
        &self,
        from: NodeId,
        target: Uid,
        op: OpName,
        arg: Value,
        subject_to_faults: bool,
        first_attempt: bool,
        driver_owned: bool,
        admit_by: Option<std::time::Instant>,
        wake: Option<&mut Option<Woken>>,
    ) -> PendingReply {
        let metrics = &self.inner.metrics;
        if first_attempt {
            metrics.record_invocation(arg.size_hint());
        }
        let fail = |e: EdenError| {
            if !driver_owned {
                metrics.record_fatal_failure();
            }
            PendingReply::ready(Err(e))
        };
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return fail(EdenError::KernelShutdown);
        }
        if subject_to_faults {
            if let Some(err) = self.apply_fault(target, &op) {
                self.record_faulted_span(from, target, &op);
                return fail(err);
            }
        }
        let route = match self.resolve_route(target) {
            Ok(route) => route,
            Err(e) => return fail(e),
        };
        let (handle, pending) =
            self.reply_pair_for(target, &op, from, &route, driver_owned, admit_by);
        // A bounce here means the coordinator exited since the route was
        // resolved; dropping the bounced envelope drops `handle`, which
        // resolves the pending reply with EjectCrashed — the correct
        // observation for the caller.
        let _ = self.dispatch_route(from, &route, Invocation { op, arg }, handle, wake);
        pending
    }

    /// Build the reply pair for a resolved dispatch, wiring in outcome
    /// metering (non-driver invocations settle the ledger at reply time),
    /// the absolute deadline admission control reads, and the
    /// observability tag (span coordinates + enqueue timestamp) when the
    /// plane is enabled.
    fn reply_pair_for(
        &self,
        target: Uid,
        op: &OpName,
        from: NodeId,
        route: &Route,
        driver_owned: bool,
        admit_by: Option<std::time::Instant>,
    ) -> (ReplyHandle, PendingReply) {
        let obs = self.inner.obs.as_ref().map(|obs| {
            // Histogram-only mode never reads the span coordinates; skip
            // the thread-local lookup and the span-id allocation.
            let ctx = if obs.config().spans {
                eden_core::span::child_of_current()
            } else {
                eden_core::span::SpanContext {
                    trace: 0,
                    span: 0,
                    parent: None,
                    hop: 0,
                }
            };
            Box::new(ObsTag::new(
                Arc::clone(obs),
                ctx,
                target,
                op.clone(),
                from,
                route.node,
            ))
        });
        reply_pair_with(target, self.inner.metrics.clone(), !driver_owned, admit_by, obs)
    }

    /// Make a fault-injected delivery visible to the observability plane.
    /// The attempt never built a reply pair (and so carries no [`ObsTag`]);
    /// a zero-duration failed span is recorded directly, keeping injected
    /// drops, errors, and crashes in the causal tree their retries belong
    /// to.
    fn record_faulted_span(&self, from: NodeId, target: Uid, op: &OpName) {
        if let Some(obs) = &self.inner.obs {
            if obs.config().spans {
                obs.record_faulted(eden_core::span::child_of_current(), target, op, from);
            }
        }
    }

    /// Consult the fault injector for this delivery attempt. `Some` means
    /// the invocation's fate was decided here (dropped, failed, or its
    /// target crashed); `None` means deliver normally, possibly after an
    /// injected delay. Faulted invocations never reach a mailbox; the
    /// logical invocation is still in the ledger (metered at first
    /// attempt), and `faults_injected` counts the decision.
    fn apply_fault(&self, target: Uid, op: &OpName) -> Option<EdenError> {
        if !self.inner.faults.armed() {
            return None;
        }
        let decision = self.inner.faults.decide(op)?;
        self.inner.metrics.record_fault_injected();
        match decision.kind {
            // A lost invocation, observed as the timeout it would become —
            // immediately, so retry backoff (not a 30 s deadline) paces
            // the recovery.
            FaultKind::Drop => Some(EdenError::Timeout),
            FaultKind::Error => Some(EdenError::FaultInjected(decision.label)),
            FaultKind::CrashTarget => {
                // Fail-stop the target, then fail this invocation the way
                // an in-flight invocation dies with its responder. If the
                // target ever checkpointed, a retry reactivates it.
                let _ = self.crash(target);
                Some(EdenError::EjectCrashed(target))
            }
            FaultKind::Delay(latency) => {
                // eden-lint: timer(injected-latency)
                crate::sched::blocking(|| std::thread::sleep(latency));
                None
            }
        }
    }

    /// Install a fault plan on the invocation path, replacing any previous
    /// plan. Every delivery attempt (including retries) of a non-immune
    /// invocation consults the plan.
    pub fn install_faults(&self, plan: FaultPlan) {
        self.inner.faults.install(plan);
    }

    /// The cached-route invocation path. Semantically identical to
    /// [`Kernel::invoke_from`]; differs only in cost (a hit skips the
    /// registry) and in the `route_cache_hits`/`route_cache_misses`
    /// counters. This path is always a first attempt (retry re-sends never
    /// carry a cache), so it opens the ledger entry unconditionally; a
    /// stale-route fallback redelivers the same logical invocation and
    /// meters nothing extra — and is a plain send even for a call.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn invoke_cached(
        &self,
        from: NodeId,
        cache: &mut RouteCache,
        target: Uid,
        op: OpName,
        arg: Value,
        subject_to_faults: bool,
        driver_owned: bool,
        admit_by: Option<std::time::Instant>,
        wake: Option<&mut Option<Woken>>,
    ) -> PendingReply {
        let metrics = &self.inner.metrics;
        // Meter BEFORE the send: the receiver may handle the envelope (and
        // an observer snapshot the counters) before this thread runs again,
        // so the count must be visible no later than the envelope.
        metrics.record_invocation(arg.size_hint());
        let fail = |e: EdenError| {
            if !driver_owned {
                metrics.record_fatal_failure();
            }
            PendingReply::ready(Err(e))
        };
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return fail(EdenError::KernelShutdown);
        }
        if subject_to_faults {
            if let Some(err) = self.apply_fault(target, &op) {
                self.record_faulted_span(from, target, &op);
                return fail(err);
            }
        }
        if let Some(route) = cache.lookup(target) {
            let (handle, pending) =
                self.reply_pair_for(target, &op, from, route, driver_owned, admit_by);
            match self.dispatch_route(from, route, Invocation { op, arg }, handle, wake) {
                Ok(()) => {
                    metrics.record_route_cache_hit();
                    pending
                }
                Err(SendError(envelope)) => {
                    // The cached coordinator exited. Recover the very same
                    // invocation and reply handle from the bounced envelope
                    // and retry through the registry, which reactivates a
                    // passive target exactly as an uncached send would.
                    // The logical invocation is already in the ledger; the
                    // redelivery must not meter again, or a stale route
                    // would count two invocations where the uncached path
                    // counts one.
                    cache.invalidate(target);
                    metrics.record_route_cache_miss();
                    let Envelope::Invocation(invocation, handle) = envelope else {
                        unreachable!("bounced envelope is the invocation just sent");
                    };
                    match self.resolve_route(target) {
                        Ok(fresh) => {
                            cache.insert(fresh.clone());
                            // A second bounce (send error) means the fresh
                            // coordinator also exited; dropping the envelope
                            // resolves the reply with EjectCrashed.
                            if let Ok(outcome) =
                                fresh.tx.send(Envelope::Invocation(invocation, handle))
                            {
                                self.settle_send_outcome(outcome);
                            }
                        }
                        // Resolve silently: the uncached path reports a
                        // missing target without metering a reply, so the
                        // cached path must too. (The handle still settles
                        // the outcome ledger — the invocation failed.)
                        Err(e) => handle.resolve_silent(e),
                    }
                    pending
                }
            }
        } else {
            metrics.record_route_cache_miss();
            let route = match self.resolve_route(target) {
                Ok(route) => route,
                Err(e) => return fail(e),
            };
            cache.insert(route.clone());
            let (handle, pending) =
                self.reply_pair_for(target, &op, from, &route, driver_owned, admit_by);
            let _ = self.dispatch_route(from, &route, Invocation { op, arg }, handle, wake);
            pending
        }
    }

    /// Resolve whatever admission control did on a successful send: count
    /// each shed under its policy label and resolve its reply with the
    /// retryable [`EdenError::Overloaded`], so waiters observe the shed as
    /// overload (not as a crash) and retry drivers back off and re-send.
    fn settle_send_outcome(&self, outcome: SendOutcome) {
        match outcome {
            SendOutcome::Delivered => {}
            SendOutcome::Rejected(envelope, cause) => self.resolve_shed(envelope, cause),
        }
    }

    fn resolve_shed(&self, envelope: Envelope, cause: ShedCause) {
        match cause {
            ShedCause::Newest => self.inner.metrics.record_shed_newest(),
            ShedCause::ParkTimeout => self.inner.metrics.record_shed_park_timeout(),
        }
        // The mailbox only ever sheds invocations; anything else would be
        // a protocol bug, and dropping it here is the safe failure mode.
        if let Envelope::Invocation(_, handle) = envelope {
            let target = handle.responder();
            handle.resolve_silent(EdenError::Overloaded {
                target,
                policy: cause.policy_label(),
            });
        }
    }

    /// Resolve `target` to a live mailbox route, reactivating it from its
    /// passive representation if needed. The fast path (target already
    /// active) takes only a shard read lock; reactivation upgrades to the
    /// shard write lock and re-checks, so concurrent resolvers of the same
    /// passive target activate it exactly once.
    fn resolve_route(&self, target: Uid) -> Result<Route> {
        let shard = self.inner.shard(target);
        {
            let slots = shard.slots.read();
            match slots.get(&target) {
                None => return Err(EdenError::NoSuchEject(target)),
                Some(slot) => {
                    if let SlotState::Active { tx, .. } = &slot.state {
                        return Ok(Route {
                            target,
                            tx: tx.clone(),
                            node: slot.node,
                            incarnation: slot.incarnation,
                        });
                    }
                }
            }
        }
        let mut slots = shard.slots.write();
        loop {
            match slots.get(&target) {
                None => return Err(EdenError::NoSuchEject(target)),
                Some(slot) => match &slot.state {
                    SlotState::Active { tx, .. } => {
                        return Ok(Route {
                            target,
                            tx: tx.clone(),
                            node: slot.node,
                            incarnation: slot.incarnation,
                        })
                    }
                    SlotState::Passive { .. } => {
                        // "If a passive eject is sent an invocation, the
                        // Eden kernel will activate it" (§1).
                        self.reactivate(&mut slots, target)?;
                    }
                },
            }
        }
    }

    /// Deliver a resolved invocation: inject latency, send — the one
    /// place an invocation enters a mailbox by a fresh route. (The ledger
    /// entry was opened by the caller — once per logical invocation, not per
    /// delivery attempt.) Runs with no kernel lock held — the route owns
    /// clones of everything it needs — so injected latency delays only this
    /// sender and can never serialise unrelated invocations.
    ///
    /// A call passes `wake`: if this push is what wakes the target, the wake
    /// is left there, un-enqueued, for the caller to spend
    /// ([`finish_call`]). `Err` hands back the envelope of a route whose
    /// coordinator has exited. A successful send may still have shed
    /// envelopes (admission control at a full bounded mailbox); those
    /// resolve with `Overloaded`.
    fn dispatch_route(
        &self,
        from: NodeId,
        route: &Route,
        invocation: Invocation,
        handle: ReplyHandle,
        wake: Option<&mut Option<Woken>>,
    ) -> std::result::Result<(), SendError> {
        let metrics = &self.inner.metrics;
        if route.node != from {
            metrics.record_remote_invocation();
        }
        if let Some(latency) = self.inner.config.invocation_latency {
            // eden-lint: timer(injected-latency)
            crate::sched::blocking(|| std::thread::sleep(latency));
        }
        let envelope = Envelope::Invocation(invocation, handle);
        let outcome = match wake {
            Some(wake) => {
                let (outcome, woken) = route.tx.send_calling(envelope)?;
                *wake = woken;
                outcome
            }
            None => route.tx.send(envelope)?,
        };
        self.settle_send_outcome(outcome);
        Ok(())
    }

    /// The current state of `uid`, if the kernel knows it.
    pub fn eject_state(&self, uid: Uid) -> Option<EjectState> {
        let slots = self.inner.shard(uid).slots.read();
        slots.get(&uid).map(|slot| match slot.state {
            SlotState::Active { .. } => EjectState::Active,
            SlotState::Passive { .. } => EjectState::Passive,
        })
    }

    /// Number of Ejects the kernel currently knows (active + passive).
    pub fn eject_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| shard.slots.read().len())
            .sum()
    }

    /// A snapshot of every known Eject, sorted by UID.
    pub fn list_ejects(&self) -> Vec<EjectInfo> {
        let mut rows: Vec<EjectInfo> = Vec::new();
        for shard in self.inner.shards.iter() {
            let slots = shard.slots.read();
            rows.extend(slots.iter().map(|(uid, slot)| match &slot.state {
                SlotState::Active { type_name, .. } => EjectInfo {
                    uid: *uid,
                    state: EjectState::Active,
                    type_name: (*type_name).to_owned(),
                    node: slot.node,
                },
                SlotState::Passive { type_name } => EjectInfo {
                    uid: *uid,
                    state: EjectState::Passive,
                    type_name: type_name.clone(),
                    node: slot.node,
                },
            }));
        }
        rows.sort_by_key(|r| r.uid);
        rows
    }

    /// Simulated fail-stop crash of one Eject. The coordinator stops at
    /// its next dispatch point without replying to anything outstanding;
    /// waiters observe [`EdenError::EjectCrashed`]. Blocks until the
    /// coordinator has exited — except when an Eject crashes *itself*,
    /// which is detected and returns without waiting.
    pub fn crash(&self, uid: Uid) -> Result<()> {
        let (tx, task) = {
            let slots = self.inner.shard(uid).slots.read();
            match slots.get(&uid).map(|slot| &slot.state) {
                Some(SlotState::Active { tx, task, .. }) => (tx.clone(), Arc::clone(task)),
                Some(SlotState::Passive { .. }) => return Ok(()),
                None => return Err(EdenError::NoSuchEject(uid)),
            }
        };
        self.inner.metrics.record_crash();
        // Crash must land even if the mailbox is bounded and full.
        let _ = tx.force_send(Envelope::Crash);
        drop(tx);
        // A worker crashing a task it is resuming — its own, or a caller
        // further up its inline frame stack — cannot wait for that task to
        // die: it dies when this dispatch returns. Every other caller gets
        // the blocking semantics.
        if !crate::sched::is_resuming(uid) {
            task.wait_dead(None);
        }
        Ok(())
    }

    /// Wait on their death latches, for `timeout` in all, until each of `uids` active now has
    /// exited (died, gone passive, or never existed): `false` at the deadline, and at once for a
    /// uid this thread resumes, as in [`crash`](Self::crash). A later reactivation is a new
    /// incarnation, and is not waited for.
    pub fn await_gone(&self, uids: &[Uid], timeout: Duration) -> bool {
        let deadline = std::time::Instant::now().checked_add(timeout);
        uids.iter().all(|&uid| {
            let shard = self.inner.shard(uid);
            let task = match shard.slots.read().get(&uid).map(|slot| &slot.state) {
                Some(SlotState::Active { task, .. }) => Arc::clone(task),
                _ => return true,
            };
            !crate::sched::is_resuming(uid) && task.wait_dead(deadline)
        })
    }

    /// Write to stable storage on behalf of an Eject (used by its contexts):
    /// `state` whole, as the passive representation of a `type_name`, or
    /// without one as an entry in the journal beside it. A write that fails
    /// to persist is *not* durable, and the error must reach the Eject so it
    /// does not acknowledge work it would lose.
    pub(crate) fn stable_write(&self, uid: Uid, type_name: Option<&str>, state: &Value) -> Result<()> {
        let bytes = Bytes::from(wire::encode(state));
        let len = bytes.len();
        match type_name {
            Some(type_name) => self.inner.stable.store(uid, type_name, bytes)?,
            None => self.inner.stable.append(uid, bytes)?,
        }
        self.inner.metrics.record_checkpoint(len, type_name.is_none());
        Ok(())
    }

    /// Called by a coordinator as its last act. Decides the Eject's fate:
    /// passive if it ever checkpointed, gone otherwise.
    pub(crate) fn on_eject_exit(&self, uid: Uid, incarnation: u64, crashed: bool) {
        if let Some(obs) = &self.inner.obs {
            obs.record_lifecycle(Lifecycle::Stop { uid, crashed });
        }
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let mut slots = self.inner.shard(uid).slots.write();
        let is_current = matches!(
            slots.get(&uid),
            Some(Slot { state: SlotState::Active { .. }, incarnation: cur, .. })
                if *cur == incarnation
        );
        if !is_current {
            return;
        }
        match self.inner.stable.load(uid) {
            Ok(record) => {
                // The shard write lock has been held since the currency
                // check, so the slot is still there; the exit path must
                // not carry a panic, so degrade to a no-op if it is not.
                if let Some(slot) = slots.get_mut(&uid) {
                    slot.state = SlotState::Passive {
                        type_name: record.type_name,
                    };
                }
            }
            Err(_) => {
                // Never checkpointed: "since it has never Checkpointed,
                // [it] disappears" (§7).
                slots.remove(&uid);
            }
        }
    }

    /// Reactivate a passive Eject: load its checkpoint, run its type's
    /// constructor on it and then `redo` on each entry of its journal, oldest
    /// first, and start a fresh coordinator under the same UID. Called with
    /// the target's shard write lock held.
    // eden-lint: holds(registry-shard)
    fn reactivate(&self, slots: &mut HashMap<Uid, Slot>, uid: Uid) -> Result<()> {
        let record = self.inner.stable.load(uid)?;
        let factory = self
            .inner
            .types
            .lock()
            .get(&record.type_name)
            .cloned()
            .ok_or_else(|| {
                EdenError::Application(format!(
                    "no type constructor registered for `{}`",
                    record.type_name
                ))
            })?;
        // Zero-copy reactivation: the state's payloads alias the
        // checkpoint buffer instead of being copied out of it.
        let state = wire::decode_shared(&record.bytes)?;
        let mut behavior = factory(Some(state))?;
        for entry in &record.journal {
            behavior.redo(wire::decode_shared(entry)?)?;
        }
        let replies_last = behavior.replies_last();
        let node = slots.get(&uid).map(|slot| slot.node).unwrap_or_default();
        self.inner.metrics.record_reactivation();
        self.start_coordinator(slots, uid, node, behavior, replies_last)
    }

    // Receives the shard guard's map from its caller (spawn or
    // reactivate), so the shard lock is held for the whole body.
    // eden-lint: holds(registry-shard)
    fn start_coordinator(
        &self,
        slots: &mut HashMap<Uid, Slot>,
        uid: Uid,
        node: NodeId,
        behavior: Box<dyn EjectBehavior>,
        replies_last: bool,
    ) -> Result<()> {
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(EdenError::KernelShutdown);
        }
        let incarnation = slots.get(&uid).map(|slot| slot.incarnation).unwrap_or(0) + 1;
        let (tx, core) = mailbox(self.inner.config.mailbox_bound);
        let type_name = behavior.type_name();
        let ctx = Arc::new(EjectContext {
            uid,
            node,
            type_name,
            kernel: self.downgrade(),
            internal: InternalSender {
                tx: tx.clone(),
                metrics: self.inner.metrics.clone(),
            },
            stop: Arc::new(AtomicBool::new(false)),
            deactivate: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
        });
        self.inner.metrics.record_activation();
        if let Some(obs) = &self.inner.obs {
            obs.record_lifecycle(Lifecycle::Activate { uid, type_name });
        }
        // The coordinator inherits the spawner's ambient span: an Eject
        // activated while a pipeline (or a retry holding its origin span)
        // is ambient joins that trace, so invocations its `activate` hook
        // sends — e.g. a conventional pump spawning — and a
        // crash/reactivate cycle both stay causally connected.
        let ambient = eden_core::span::current();
        let task = self.inner.sched.spawn_task(
            core,
            ctx,
            incarnation,
            behavior,
            replies_last,
            ambient,
        );
        slots.insert(
            uid,
            Slot {
                state: SlotState::Active {
                    tx,
                    task,
                    type_name,
                },
                node,
                incarnation,
            },
        );
        Ok(())
    }

    /// Stop every Eject and wait for every coordinator, then stop the
    /// worker pool. Idempotent. Passive representations
    /// survive in the stable store.
    pub fn shutdown(&self) {
        if self.inner.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut entries: Vec<(MailboxSender, Arc<Task>)> = Vec::new();
        for shard in self.inner.shards.iter() {
            let mut slots = shard.slots.write();
            entries.extend(slots.drain().filter_map(|(_, slot)| match slot.state {
                SlotState::Active { tx, task, .. } => Some((tx, task)),
                SlotState::Passive { .. } => None,
            }));
        }
        shutdown_entries(entries, &self.inner.sched);
        self.inner.sched.stop();
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        // Last user-visible handle: shut the kernel down. Coordinators
        // hold only weak references, so they do not keep the kernel alive.
        // (If a racing upgrade makes the count transiently higher, the
        // KernelInner::drop backstop finishes the job.)
        if Arc::strong_count(&self.inner) == 1 {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_core::op::ops;
    use std::time::Instant;

    /// Checkpoints to `Unit`; answers anything else by waiting for itself
    /// to be gone, which it cannot be while it answers.
    struct Stayer;

    impl EjectBehavior for Stayer {
        fn type_name(&self) -> &'static str {
            "Stayer"
        }
        fn handle(&mut self, ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
            let kernel = ctx.kernel().expect("kernel alive");
            let gone = kernel.await_gone(&[ctx.uid()], Duration::from_secs(30));
            reply.reply(Ok(Value::Bool(gone)));
        }
        fn passive_representation(&self) -> Option<Value> {
            Some(Value::Unit)
        }
    }

    #[test]
    fn await_gone_is_true_at_once_for_unknown_and_passive_uids() {
        let kernel = Kernel::new();
        kernel.register_type("Stayer", |_| Ok(Box::new(Stayer) as Box<dyn EjectBehavior>));
        assert!(kernel.await_gone(&[Uid::fresh()], Duration::ZERO));
        let uid = kernel.spawn(Box::new(Stayer)).unwrap();
        kernel
            .invoke(uid, ops::CHECKPOINT, Value::Unit)
            .wait()
            .unwrap();
        kernel
            .invoke(uid, ops::DEACTIVATE, Value::Unit)
            .wait()
            .unwrap();
        assert!(kernel.await_gone(&[uid], Duration::from_secs(10)));
        assert_eq!(kernel.eject_state(uid), Some(EjectState::Passive));
        assert!(kernel.await_gone(&[uid, Uid::fresh()], Duration::ZERO));
        kernel.shutdown();
    }

    #[test]
    fn await_gone_is_false_at_the_deadline_for_a_live_eject() {
        let kernel = Kernel::new();
        let uid = kernel.spawn(Box::new(Stayer)).unwrap();
        let from = Instant::now();
        assert!(!kernel.await_gone(&[Uid::fresh(), uid], Duration::from_millis(20)));
        assert!(from.elapsed() >= Duration::from_millis(20));
        assert_eq!(kernel.eject_state(uid), Some(EjectState::Active));
        kernel.shutdown();
    }

    #[test]
    fn await_gone_is_true_after_deactivate_and_the_slot_is_gone() {
        let kernel = Kernel::new();
        let uids: Vec<Uid> = (0..3)
            .map(|_| kernel.spawn(Box::new(Stayer)).unwrap())
            .collect();
        for &uid in &uids {
            let _ = kernel.invoke(uid, ops::DEACTIVATE, Value::Unit);
        }
        assert!(kernel.await_gone(&uids, Duration::from_secs(10)));
        assert!(uids.iter().all(|&uid| kernel.eject_state(uid).is_none()));
        kernel.shutdown();
    }

    #[test]
    fn await_gone_on_its_own_uid_from_its_handler_is_false_not_a_deadlock() {
        let kernel = Kernel::new();
        let uid = kernel.spawn(Box::new(Stayer)).unwrap();
        let answer = kernel
            .invoke(uid, "AwaitSelf", Value::Unit)
            .wait_timeout(Duration::from_secs(10));
        assert_eq!(answer, Ok(Value::Bool(false)));
        kernel.shutdown();
    }
}
