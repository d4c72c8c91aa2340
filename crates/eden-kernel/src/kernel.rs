//! The Eden kernel: Eject registry, invocation routing, activation and
//! crash/recovery.
//!
//! The real Eden kernel ran on several VAXen and routed invocations over a
//! 10 Mbit Ethernet; this reproduction runs every Eject as a task of one
//! process — a coordinator parked on its mailbox, resumed by a worker of the
//! kernel's pool when mail arrives — and models distribution with
//! [`NodeId`] placement and a remote invocation counter, and a slow network
//! with a fault plan's [`FaultKind::Delay`]. The observable semantics the
//! paper relies on are preserved:
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
//! One function, [`KernelInner::deliver`], puts every invocation into a mailbox:
//! plain or retried, a first send or a re-send, a call or a send, by a
//! cached route or through the registry. It meters, checks for shutdown and
//! consults the fault plan before it routes, and sends with *no* lock held,
//! so a delay injected on one invocation can never serialise unrelated
//! senders. The registry is sharded by UID: concurrent pipelines resolving
//! different targets take different locks, and resolutions of
//! already-active targets take only a shard *read* lock. A caller that
//! invokes the same target again and again can hold a [`RouteCache`] and
//! skip the registry entirely — see [`Kernel::call_routed`] and the
//! [`routes`](crate::routes) module for the staleness protocol.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use eden_core::{wire, EdenError, Metrics, OpName, Result, Uid, Value};
use parking_lot::{Mutex, RwLock};

use crate::behavior::EjectBehavior;
use crate::context::{EjectContext, InternalSender};
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::invocation::{reply_cell, reply_pair_with, Invocation, PendingReply, ReplyHandle};
use crate::mailbox::{mailbox, MailboxSender, Pushed};
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
    /// A bound on every Eject's mailbox. `None` (the default) keeps the
    /// mailboxes unbounded; `Some(n)` turns away an invocation that finds
    /// `n` envelopes queued, at once, with the retryable
    /// [`EdenError::Overloaded`], so `invoke_with` retry/backoff composes as
    /// client-side rate control. No sender ever waits for room: internal
    /// events and kernel control messages (crash, shutdown) go in past the
    /// bound.
    pub mailbox_bound: Option<usize>,
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
    pub fn bounded_mailboxes(mut self, capacity: usize) -> Self {
        self.config.mailbox_bound = Some(capacity);
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
    /// The Eject has a coordinator: a task on the kernel's pool, running
    /// or parked on its mailbox.
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
    /// exiting incarnation cannot demote its successor.
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
    /// The kernel-wide handle on the counters: what a reply cell made off
    /// the pool meters through. A pool worker's cells use its own handle.
    pub(crate) metrics: Arc<Metrics>,
    config: KernelConfig,
    obs: Option<Arc<ObsPlane>>,
    faults: FaultInjector,
    /// The worker pool, which holds the kernel's one timer.
    pub(crate) sched: Arc<Scheduler>,
    shutting_down: AtomicBool,
    /// User [`Kernel`] handles: the drop that takes the count to zero shuts
    /// the kernel down. An Eject's context holds this state as no user; the
    /// cycle it closes (registry → task → context) the shutdown breaks.
    users: AtomicUsize,
}

impl std::fmt::Debug for KernelInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelInner").finish_non_exhaustive()
    }
}

impl KernelInner {
    fn shard(&self, uid: Uid) -> &Shard {
        // Sequence numbers are sequential; a multiply-shift spreads
        // neighbouring UIDs across shards.
        let h = uid.seq().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize & (REGISTRY_SHARDS - 1)]
    }

    /// Empty the registry, stop every coordinator it held, then stop the
    /// worker pool. Passive representations survive in the stable store.
    fn stop_all(&self) {
        let mut entries: Vec<(MailboxSender, Arc<Task>)> = Vec::new();
        for shard in self.shards.iter() {
            let mut slots = shard.slots.write();
            entries.extend(slots.drain().filter_map(|(_, slot)| match slot.state {
                SlotState::Active { tx, task, .. } => Some((tx, task)),
                SlotState::Passive { .. } => None,
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
/// gone. Shutdown envelopes go in past any mailbox bound. The entries are
/// awaited via the pool's death latch, which excuses the calling worker's
/// own task (shutdown can be triggered from inside a coordinator).
fn shutdown_entries(entries: Vec<(MailboxSender, Arc<Task>)>, sched: &Scheduler) {
    let send = |(tx, task): (MailboxSender, Arc<Task>)| {
        let _ = tx.send(Envelope::Shutdown);
        task
    };
    let tasks: Vec<Arc<Task>> = entries.into_iter().map(send).collect();
    if !tasks.is_empty() {
        sched.wait_all_dead();
    }
    // Dropping `tasks` here releases the dead state machines.
    drop(tasks);
}

/// An invocation as [`KernelInner::deliver`] sends it, and as a [`RetryState`]
/// keeps it to send again: where it comes from and goes to, what it asks,
/// whether the installed fault plan may select it, and its overall deadline
/// as an absolute instant, which a [`RetryState`] stops re-sending at.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    pub(crate) from: NodeId,
    pub(crate) target: Uid,
    pub(crate) invocation: Invocation,
    pub(crate) subject_to_faults: bool,
    pub(crate) deadline: Option<Instant>,
}

/// What one send is to the logical invocation it carries: whether it opens
/// the ledger entry (`invocations`, `bytes_invoked`), and whether its reply
/// settles the outcome (`successes`, `fatal_failures`) or a [`RetryState`]
/// does, once, at the terminal resolution. Three of the four combinations
/// occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attempt {
    /// A plain invocation: counted here, its outcome settled by its reply.
    Plain,
    /// The first send of a retried invocation: counted here, its outcome
    /// left to its [`RetryState`].
    First,
    /// A [`RetryState`]'s re-send: neither counted nor settled here.
    Resend,
}

/// Handle to a simulated Eden kernel.
///
/// Clones share the kernel. When the last clone drops, the kernel shuts
/// down: every coordinator receives a shutdown envelope and is joined. A
/// handle an Eject takes with [`EjectContext::kernel`] is a clone like any
/// other.
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
        self.inner.users.fetch_add(1, Ordering::Relaxed);
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
        let metrics = Metrics::new();
        let sched = Scheduler::new(config.scheduler, obs.is_some(), metrics.clone());
        let inner = KernelInner {
            shards,
            types: Mutex::new(HashMap::new()),
            stable,
            metrics: Arc::new(metrics),
            config,
            obs,
            faults: FaultInjector::default(),
            sched,
            shutting_down: AtomicBool::new(false),
            users: AtomicUsize::new(1),
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

    /// A user handle on `inner`, unless the last one has dropped already.
    pub(crate) fn adopt(inner: &Arc<KernelInner>) -> Option<Kernel> {
        let user = |users: usize| (users > 0).then_some(users + 1);
        inner
            .users
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, user)
            .ok()?;
        Some(Kernel {
            inner: Arc::clone(inner),
        })
    }

    /// How many holders share this kernel's state: user handles and Eject
    /// contexts, and nothing an invocation in flight takes.
    #[doc(hidden)]
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// A probe that reads whether anything of this kernel is still
    /// allocated: its shared state, or its worker pool.
    #[doc(hidden)]
    pub fn liveness_probe(&self) -> impl Fn() -> bool + Send + Sync + 'static {
        let inner = Arc::downgrade(&self.inner);
        let sched = Arc::downgrade(&self.inner.sched);
        move || inner.strong_count() + sched.strong_count() > 0
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
        self.inner
            .start_coordinator(&mut slots, uid, node, behavior, replies_last)?;
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
        self.invoke_with(target, op, arg, InvokeOptions::new())
    }

    /// Invoke and wait for the reply: "a kind of remote procedure call"
    /// (§1), and where it can be, executed as one. A sender that says it
    /// will wait is the one sender that may run its callee itself: if this
    /// send is what wakes `target` from its park, and `target`'s behaviour
    /// declares [`replies_last`](EjectBehavior::replies_last), it is resumed
    /// right here on the calling thread's stack — whatever thread that is —
    /// until the reply is in (counted in
    /// [`MetricsSnapshot::inline_handoffs`](eden_core::MetricsSnapshot)),
    /// rather than queued for a pool worker while this thread sleeps. Every
    /// other case — an undeclared target, one that is running or already
    /// queued, a reply it defers — is [`invoke`](Kernel::invoke) followed by
    /// [`wait`](PendingReply::wait), which is what `call` always means.
    pub fn call(&self, target: Uid, op: impl Into<OpName>, arg: Value) -> Result<Value> {
        let opts = InvokeOptions::new();
        self.inner
            .send(NodeId::default(), target, op.into(), arg, opts, true)
            .wait()
    }

    /// [`call`](Kernel::call) through a caller-owned [`RouteCache`].
    pub fn call_routed(
        &self,
        cache: &mut RouteCache,
        target: Uid,
        op: impl Into<OpName>,
        arg: Value,
    ) -> Result<Value> {
        let opts = InvokeOptions::new().route_cache(cache);
        self.inner
            .send(NodeId::default(), target, op.into(), arg, opts, true)
            .wait()
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
        self.inner
            .send(NodeId::default(), target, op.into(), arg, opts, false)
    }

    /// Install a fault plan on the invocation path, replacing any previous
    /// plan. Every delivery attempt (including retries) of a non-immune
    /// invocation consults the plan.
    pub fn install_faults(&self, plan: FaultPlan) {
        self.inner.faults.install(plan);
    }
}

/// The delivery chain, on the state an Eject's context holds: a context
/// sends with no handle to take and drop, and a kernel handle by forwarding.
impl KernelInner {
    /// An invocation under `opts`, sent or called. A sender that will `wait`
    /// at once has made a call, whatever its options: a wake its first
    /// delivery wins is spent here, run or enqueued ([`Woken::run_as_call`]),
    /// before the check that it may wait at all, whose panic must not lose
    /// it. A deadline or retries keep the request (clones are reference
    /// bumps) in a [`RetryState`] that re-sends it.
    pub(crate) fn send(
        self: &Arc<Self>,
        from: NodeId,
        target: Uid,
        op: OpName,
        arg: Value,
        opts: InvokeOptions<'_>,
        wait: bool,
    ) -> PendingReply {
        let request = Request {
            from,
            target,
            invocation: Invocation { op, arg },
            subject_to_faults: opts.subject_to_faults(),
            deadline: opts.deadline.map(|d| Instant::now() + d),
        };
        let mut woken = None;
        let wake = wait.then_some(&mut woken);
        let pending = match opts.needs_driver() {
            false => self.deliver(request, Attempt::Plain, opts.route_cache, wake),
            true => {
                let first = self.deliver(request.clone(), Attempt::First, opts.route_cache, wake);
                PendingReply::Retrying(Box::new(RetryState::new(self, request, opts.retry, first)))
            }
        };
        if let Some(woken) = woken {
            woken.run_as_call(&|| pending.is_settled());
        }
        wait.then(crate::sched::note_wait);
        pending
    }

    /// Put `request` into its target's mailbox: the one way an invocation
    /// is delivered, whether plain or retried, a first send or a re-send, a
    /// call or a send, by a cached route or through the registry.
    ///
    /// The invocation is metered before the send — the receiver may handle
    /// it, and an observer snapshot the counters, before this thread runs
    /// again — unless it is a re-send, which the ledger already holds. The
    /// shutdown check and the fault decision both come before any route. A
    /// route `cache` lends a route it holds to the send and counts a hit
    /// once the send went in. A stale one hands the envelope back (its
    /// coordinator exited): the same envelope is re-delivered through the
    /// registry, which reactivates a passive target as an uncached send
    /// would — a plain send even for a call, metering nothing more and
    /// counting one miss — and a target gone by then is reported as the
    /// registry path reports it. A call hands it a `wake`, and so does a
    /// re-send, which is the call its first send was; only the first
    /// dispatch can fill it (see [`dispatch_route`](Self::dispatch_route)).
    pub(crate) fn deliver(
        self: &Arc<Self>,
        request: Request,
        attempt: Attempt,
        cache: Option<&mut RouteCache>,
        wake: Option<&mut Option<Woken>>,
    ) -> PendingReply {
        let Request {
            from,
            target,
            invocation,
            subject_to_faults,
            ..
        } = request;
        let metrics = &self.metrics;
        if attempt != Attempt::Resend {
            metrics.record_invocation(invocation.arg.size_hint());
        }
        let fail = |e: EdenError| {
            if attempt == Attempt::Plain {
                metrics.record_fatal_failure();
            }
            PendingReply::ready(Err(e))
        };
        if self.shutting_down.load(Ordering::Acquire) {
            return fail(EdenError::KernelShutdown);
        }
        if subject_to_faults {
            if let Some(err) = self.apply_fault(target, &invocation.op) {
                self.record_faulted_span(from, target, &invocation.op);
                return fail(err);
            }
        }
        if let Some(route) = cache.as_deref().and_then(|cache| cache.lookup(target)) {
            let (handle, pending) = self.reply_pair_for(&invocation.op, from, route, attempt);
            let envelope = Envelope::Invocation(invocation, handle);
            let Some(envelope) = self.dispatch_route(from, route, envelope, wake) else {
                metrics.record_route_cache_hit();
                return pending;
            };
            match self.resolve_missed(cache, target) {
                // A second bounce means the fresh coordinator exited too;
                // dropping the envelope resolves the reply with EjectCrashed.
                Ok(fresh) => {
                    if let Pushed::Rejected(envelope) = fresh.tx.send(envelope) {
                        self.settle_rejected(envelope);
                    }
                }
                Err(e) => {
                    let Envelope::Invocation(_, handle) = envelope else {
                        unreachable!("a bounced envelope is the invocation just sent");
                    };
                    handle.refuse(e);
                }
            }
            return pending;
        }
        let route = match self.resolve_missed(cache, target) {
            Ok(route) => route,
            Err(e) => return fail(e),
        };
        let (handle, pending) = self.reply_pair_for(&invocation.op, from, &route, attempt);
        // A bounce here means the coordinator exited since the route was
        // resolved; dropping the bounced envelope drops `handle`, which
        // resolves the pending reply with EjectCrashed — the correct
        // observation for the caller.
        let _ = self.dispatch_route(from, &route, Envelope::Invocation(invocation, handle), wake);
        pending
    }

    /// Build the reply pair for a resolved dispatch, wiring in outcome
    /// metering (a plain invocation settles the ledger at reply time) and
    /// the observability tag (span coordinates + enqueue timestamp) when the
    /// plane is enabled. The cell meters through the calling thread's own
    /// handle on the counters, if it is one of this kernel's workers, so a
    /// hop takes and drops no count on a line every thread writes.
    fn reply_pair_for(
        &self,
        op: &OpName,
        from: NodeId,
        route: &Route,
        attempt: Attempt,
    ) -> (ReplyHandle, PendingReply) {
        let target = route.target;
        let obs = self.obs.as_ref().map(|obs| {
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
        let plain = attempt == Attempt::Plain;
        let cell = crate::sched::local_metrics(&self.sched, |local| {
            reply_cell(target, local.unwrap_or(&self.metrics), plain)
        });
        reply_pair_with(cell, obs)
    }

    /// Make a fault-injected delivery visible to the observability plane.
    /// The attempt never built a reply pair (and so carries no [`ObsTag`]);
    /// a zero-duration failed span is recorded directly, keeping injected
    /// drops, errors, and crashes in the causal tree their retries belong
    /// to.
    fn record_faulted_span(&self, from: NodeId, target: Uid, op: &OpName) {
        if let Some(obs) = &self.obs {
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
        if !self.faults.armed() {
            return None;
        }
        let decision = self.faults.decide(op)?;
        self.metrics.record_fault_injected();
        match decision.kind {
            // A lost invocation, observed as the timeout it would become —
            // immediately, so the recovery is a retry's re-send (at once
            // for the first), not a 30 s deadline.
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

    /// Resolve an invocation a full mailbox turned away: it counts as a
    /// shed, and its reply resolves with the retryable
    /// [`EdenError::Overloaded`], so waiters observe the shed as overload
    /// (not as a crash) and retry drivers back off and re-send.
    fn settle_rejected(&self, envelope: Envelope) {
        // The mailbox only ever turns invocations away.
        if let Envelope::Invocation(_, handle) = envelope {
            self.metrics.record_shed_newest();
            let target = handle.responder();
            handle.resolve_silent(EdenError::Overloaded {
                target,
                policy: "reject-newest",
            });
        }
    }

    /// Resolve `target` to a live mailbox route, reactivating it from its
    /// passive representation if needed. The fast path (target already
    /// active) takes only a shard read lock; reactivation upgrades to the
    /// shard write lock and re-checks, so concurrent resolvers of the same
    /// passive target activate it exactly once.
    fn resolve_route(self: &Arc<Self>, target: Uid) -> Result<Route> {
        let active = |slot: &Slot| match &slot.state {
            SlotState::Active { tx, .. } => Some(Route {
                target,
                tx: tx.clone(),
                node: slot.node,
            }),
            SlotState::Passive { .. } => None,
        };
        let shard = self.shard(target);
        match shard.slots.read().get(&target) {
            None => return Err(EdenError::NoSuchEject(target)),
            Some(slot) => {
                if let Some(route) = active(slot) {
                    return Ok(route);
                }
            }
        }
        let mut slots = shard.slots.write();
        loop {
            let slot = slots.get(&target).ok_or(EdenError::NoSuchEject(target))?;
            if let Some(route) = active(slot) {
                return Ok(route);
            }
            // "If a passive eject is sent an invocation, the Eden kernel
            // will activate it" (§1).
            self.reactivate(&mut slots, target)?;
        }
    }

    /// [`resolve_route`](Self::resolve_route), as a miss of `cache` when
    /// there is one: counted, and the cache drops any stale route to
    /// `target` and keeps the fresh one.
    fn resolve_missed(
        self: &Arc<Self>,
        cache: Option<&mut RouteCache>,
        target: Uid,
    ) -> Result<Route> {
        let Some(cache) = cache else {
            return self.resolve_route(target);
        };
        self.metrics.record_route_cache_miss();
        cache.invalidate(target);
        let route = self.resolve_route(target)?;
        cache.insert(route.clone());
        Ok(route)
    }

    /// Send a routed invocation. Runs with no kernel lock held — the route
    /// owns clones of everything it needs.
    ///
    /// A call passes `wake`: if this push is what wakes the target, the wake
    /// is left there, un-enqueued, for the caller to spend
    /// ([`send`](Self::send)); without one it is enqueued here. `Some` hands
    /// back the envelope of a route whose coordinator has exited. A full
    /// bounded mailbox may still turn the invocation away; it resolves with
    /// `Overloaded`.
    fn dispatch_route(
        &self,
        from: NodeId,
        route: &Route,
        envelope: Envelope,
        wake: Option<&mut Option<Woken>>,
    ) -> Option<Envelope> {
        if route.node != from {
            self.metrics.record_remote_invocation();
        }
        match route.tx.send_calling(envelope) {
            Pushed::Delivered(None) => {}
            Pushed::Delivered(Some(woken)) => match wake {
                Some(wake) => *wake = Some(woken),
                None => woken.enqueue(),
            },
            Pushed::Rejected(envelope) => self.settle_rejected(envelope),
            Pushed::Closed(stale) => return Some(stale),
        }
        None
    }
}

impl Kernel {
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
        self.inner.crash(uid)
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

    /// Stop every Eject and wait for every coordinator, then stop the
    /// worker pool. Idempotent. Passive representations
    /// survive in the stable store.
    pub fn shutdown(&self) {
        if !self.inner.shutting_down.swap(true, Ordering::AcqRel) {
            self.inner.stop_all();
        }
    }
}

impl KernelInner {
    /// [`Kernel::crash`].
    fn crash(&self, uid: Uid) -> Result<()> {
        let (tx, task) = {
            let slots = self.shard(uid).slots.read();
            match slots.get(&uid).map(|slot| &slot.state) {
                Some(SlotState::Active { tx, task, .. }) => (tx.clone(), Arc::clone(task)),
                Some(SlotState::Passive { .. }) => return Ok(()),
                None => return Err(EdenError::NoSuchEject(uid)),
            }
        };
        self.metrics.record_crash();
        // Crash goes in past any mailbox bound.
        let _ = tx.send(Envelope::Crash);
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

    /// Write to stable storage on behalf of an Eject (used by its contexts):
    /// `state` whole, as the passive representation of a `type_name`, or
    /// without one as an entry in the journal beside it. A write that fails
    /// to persist is *not* durable, and the error must reach the Eject so it
    /// does not acknowledge work it would lose.
    pub(crate) fn stable_write(
        &self,
        uid: Uid,
        type_name: Option<&str>,
        state: &Value,
    ) -> Result<()> {
        let bytes = Bytes::from(wire::encode(state));
        let len = bytes.len();
        match type_name {
            Some(type_name) => self.stable.store(uid, type_name, bytes)?,
            None => self.stable.append(uid, bytes)?,
        }
        self.metrics.record_checkpoint(len, type_name.is_none());
        Ok(())
    }

    /// Called by a coordinator as its last act. Decides the Eject's fate:
    /// passive if it ever checkpointed, gone otherwise — and active again at
    /// once if it crashed and drives itself (`restart`).
    pub(crate) fn on_eject_exit(
        self: &Arc<Self>,
        uid: Uid,
        incarnation: u64,
        crashed: bool,
        restart: bool,
    ) {
        if let Some(obs) = &self.obs {
            obs.record_lifecycle(Lifecycle::Stop { uid, crashed });
        }
        if self.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let mut slots = self.shard(uid).slots.write();
        let is_current = matches!(
            slots.get(&uid),
            Some(Slot { state: SlotState::Active { .. }, incarnation: cur, .. })
                if *cur == incarnation
        );
        if !is_current {
            return;
        }
        match self.stable.load(uid) {
            Ok(record) => {
                // The shard write lock has been held since the currency
                // check, so the slot is still there; the exit path must
                // not carry a panic, so degrade to a no-op if it is not.
                if let Some(slot) = slots.get_mut(&uid) {
                    slot.state = SlotState::Passive {
                        type_name: record.type_name,
                    };
                }
                if restart {
                    let _ = self.reactivate(&mut slots, uid);
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
    fn reactivate(self: &Arc<Self>, slots: &mut HashMap<Uid, Slot>, uid: Uid) -> Result<()> {
        let record = self.stable.load(uid)?;
        let factory = self
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
        self.metrics.record_reactivation();
        self.start_coordinator(slots, uid, node, behavior, replies_last)
    }

    // Receives the shard guard's map from its caller (spawn or
    // reactivate), so the shard lock is held for the whole body.
    // eden-lint: holds(registry-shard)
    fn start_coordinator(
        self: &Arc<Self>,
        slots: &mut HashMap<Uid, Slot>,
        uid: Uid,
        node: NodeId,
        behavior: Box<dyn EjectBehavior>,
        replies_last: bool,
    ) -> Result<()> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(EdenError::KernelShutdown);
        }
        let incarnation = slots.get(&uid).map(|slot| slot.incarnation).unwrap_or(0) + 1;
        let (tx, core) = mailbox(self.config.mailbox_bound);
        let type_name = behavior.type_name();
        let ctx = Arc::new(EjectContext {
            uid,
            node,
            type_name,
            kernel: Arc::clone(self),
            internal: InternalSender {
                tx: tx.clone(),
                metrics: Metrics::clone(&self.metrics),
            },
            stop: Arc::new(AtomicBool::new(false)),
            deactivate: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
        });
        self.metrics.record_activation();
        if let Some(obs) = &self.obs {
            obs.record_lifecycle(Lifecycle::Activate { uid, type_name });
        }
        // The coordinator inherits the spawner's ambient span: an Eject
        // activated while a pipeline (or a retry holding its origin span)
        // is ambient joins that trace, so invocations its `activate` hook
        // sends — e.g. a conventional pump spawning — and a
        // crash/reactivate cycle both stay causally connected.
        let ambient = eden_core::span::current();
        let task = self
            .sched
            .spawn_task(core, ctx, incarnation, behavior, replies_last, ambient);
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
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        // The last user handle shuts the kernel down: exactly one drop takes
        // the count from 1 to 0, and no Eject's context is counted.
        if self.inner.users.fetch_sub(1, Ordering::AcqRel) == 1 {
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

    /// Answers an invocation once the test releases it, so the test can
    /// push while the task is `RUNNING`.
    struct Gate {
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl EjectBehavior for Gate {
        fn type_name(&self) -> &'static str {
            "Gate"
        }
        fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
            self.entered.send(()).expect("test waits");
            self.release.recv().expect("test releases");
            reply.reply(Ok(Value::Unit));
        }
    }

    #[test]
    fn a_push_carries_a_wake_only_when_it_flips_parked_to_queued() {
        let kernel = Kernel::new();
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let gate = Gate {
            entered: entered_tx,
            release: release_rx,
        };
        let uid = kernel.spawn(Box::new(gate)).unwrap();
        let parked = || {
            while kernel.metrics_snapshot().sched.parked_ejects != 1 {
                std::thread::yield_now();
            }
        };
        let route = kernel.inner.resolve_route(uid).unwrap();
        let push = || route.tx.send_calling(Envelope::Internal(Value::Unit));
        let stays_put = |pushed| assert!(matches!(pushed, Pushed::Delivered(None)));
        parked();
        let Pushed::Delivered(Some(woken)) = push() else {
            panic!("the push onto a parked task wins its wake");
        };
        stays_put(push()); // QUEUED: the wake was won already.
        woken.enqueue();
        parked();
        let pending = kernel.invoke(uid, "Go", Value::Unit);
        entered.recv().unwrap();
        stays_put(push()); // RUNNING -> DIRTY
        stays_put(push()); // DIRTY
        release.send(()).unwrap();
        assert_eq!(pending.wait(), Ok(Value::Unit));
        parked();
        let Pushed::Delivered(Some(woken)) = push() else {
            panic!("a task parked again is woken again");
        };
        woken.enqueue();
        kernel.shutdown();
        assert!(matches!(push(), Pushed::Closed(Envelope::Internal(_))));
    }
}
