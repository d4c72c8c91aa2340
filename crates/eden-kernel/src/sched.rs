//! The density plane: an N-worker scheduler for parked-mailbox Ejects.
//!
//! Thread-per-Eject prices an idle Eject at a kernel thread (stack pages,
//! a task struct, a scheduler slot) — a few thousand resident streams per
//! box. This module replaces the coordinator *thread* with a coordinator
//! *state machine*: an idle Eject is just its behaviour box parked on its
//! mailbox's parking bit, costing zero threads. Delivery flips the bit
//! (`PARKED -> QUEUED`, see [`crate::mailbox`]) and lands the task on the
//! dispatch fast path below; a pool of workers resumes tasks, each resume
//! bounded by a **fairness budget** of envelopes so one hot pipeline
//! cannot starve a million passive streams.
//!
//! # Dispatch fast path
//!
//! Delivery used to land every wake on a mutexed run-queue shard chosen
//! by a shared round-robin cursor and wake workers through one idle
//! condvar — three globally contended cache lines per delivery, which is
//! why goodput *fell* as workers were added. The hot path is now
//! lock-free end to end:
//!
//! * **Per-worker Chase–Lev deques** ([`crate::deque`]): a worker pushes
//!   the wakes it produces onto its own deque's bottom and pops them back
//!   LIFO; idle workers steal from the top with a CAS, claiming half the
//!   victim's backlog per steal session (one proven CAS per element —
//!   see the deque docs for why a range CAS would be unsound).
//! * **A one-task LIFO slot** in front of each deque: the mailbox the
//!   running task just wakened holds the hottest cache lines in the
//!   system, so it runs next on the same worker. `LIFO_BUDGET` bounds
//!   consecutive slot pickups while colder work waits, so the slot
//!   cannot starve the deque or the injector; slot pushes wake no
//!   sibling (the owner itself runs the task next).
//! * **A sharded FIFO injector** for everything else: non-worker
//!   producers (spawns, deliveries from user threads), fairness-budget
//!   requeues, and deque overflow. Producers pick a shard by a cheap
//!   per-thread index (one shared `fetch_add` per thread *lifetime*, not
//!   per push); workers drain a batch per lock round and also poll the
//!   injector periodically mid-stream so external producers are never
//!   starved behind an endless local chain.
//! * **Per-worker sleep latches**: an idle worker yields a few rounds,
//!   then announces itself on a sleeper list and parks on its own
//!   mutex+condvar latch. A producer wakes at most one sleeper, and only
//!   after a `SeqCst` fence arbitrates the announce-vs-publish race, so
//!   a push can never slip between a sleeper's last look and its sleep.
//!
//! Hot counters (resident/parked gauges, steal and pickup counts) are
//! cache-line padded and sharded per worker or per thread, folded on
//! [`Scheduler::snapshot`], so bookkeeping never bounces one shared line
//! per delivery.
//!
//! # Blocking compensation
//!
//! Eden behaviours are allowed to block mid-dispatch — a lazy filter
//! waits on its upstream reply, a bounded mailbox parks its sender, a
//! retry sleeps its backoff. On a cooperative pool those waits would eat
//! workers and deadlock once the pool is exhausted. Every such rendezvous
//! is therefore wrapped in [`blocking`]: a *worker* thread entering a
//! blocking section goes idle the way a sleeper does — it flushes its LIFO
//! slot onto its deque (where thieves can see it), counts itself blocked,
//! and only then looks at the queues it leaves behind and decides
//! ([`Scheduler::note_block_enter`]): a spare if runnable capacity fell
//! below target with no sleeper to stand in, else a wake if work waits;
//! when it exits, surplus spares retire at the next idle moment. The worst
//! case (every Eject blocked at once) degenerates to
//! thread-per-*blocked*-Eject, while the common case (parked Ejects,
//! non-blocking handlers) costs `workers` threads total.
//!
//! # Direct handoff
//!
//! The commonest rendezvous of all needs no compensation, because it need
//! not be a rendezvous: a sender that will wait for the reply at once has
//! made a call, and says so (`Kernel::call`, `EjectContext::call`,
//! `ProcessContext::call`). If its push is the one that flips the callee
//! `PARKED -> QUEUED`, the mailbox hands it that wake back as a [`Woken`]
//! instead of enqueueing it, and [`Woken::run_as_call`] — the one election
//! point — resumes the task right there, nested on the caller's stack, until
//! the awaited reply settles: no queue, no sibling wake, no sleep, no steal,
//! on whatever thread the caller is. A lazy depth-4 pipeline crosses its
//! stages as five nested calls on its sink's pump thread, no pool worker at
//! all. What the election declines it enqueues like any other wake; what a
//! resume leaves unsettled (a deferred reply), and a call that woke nobody
//! (a callee running or queued elsewhere), wait inside [`blocking`].
//!
//! A call returns when the callee's handler *returns*; a wait returns when
//! it *replies*. The two differ for a handler that replies and then keeps
//! working, and on one stack the difference cannot be undone once the
//! callee runs: its caller is in the frame beneath. Which kind a behaviour
//! is does not change from one invocation to the next, so it says: only a
//! task whose behaviour declares
//! [`replies_last`](EjectBehavior::replies_last) is ever resumed inline, and
//! it is from its first invocation on. One that declares it and then waits
//! after its reply is wrong: a debug build crashes it there ([`note_wait`]),
//! a release build fails the wait at once if it is for a task further down
//! its own stack ([`strands_responder`]).
//!
//! The scheduler is deliberately kernel-agnostic: tasks reach the kernel
//! through the weak handle in their context and workers hold only the
//! scheduler, so a dropped kernel tears down through the normal shutdown
//! path with no reference cycles.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{
    fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_core::span::SpanContext;
use eden_core::Uid;
use parking_lot::{Condvar, Mutex};

use crate::behavior::EjectBehavior;
use crate::context::EjectContext;
use crate::deque::{WorkDeque, DEQUE_CAP};
use crate::mailbox::spec::{self, Op};
use crate::mailbox::{park, MailboxCore};
use crate::runtime::{dispatch, Envelope};

/// Backstop timeout for a parked worker. The sleep protocol hands every
/// wake to a specific latch, but the timeout bounds the damage of any
/// residual race (and lets spares notice they are surplus).
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// Re-park backstop once a sleeper has confirmed the pool saturates the
/// core quota without it. Every real wake is an explicit notify, so the
/// only cost of a longer wait is the rediscovery latency of a state the
/// monitor thread already patrols; the benefit is not paying a timeout
/// wakeup per sleeper per 10ms on a saturated pool.
const SATURATED_WAIT: Duration = Duration::from_millis(100);

/// Hard ceiling on pool size, counting spares the monitor adds for
/// stalled workers. At the ceiling the pool degrades to thread-per-
/// blocked-Eject — the seed's costs, never worse.
const MAX_WORKERS: usize = 512;

/// How often the stall monitor samples pickup progress. Two stalled
/// ticks spawn a spare, so this bounds the detection latency for a
/// rendezvous the kernel cannot see.
const MONITOR_TICK: Duration = Duration::from_millis(1);

/// Yield-to-the-OS rounds an idle worker burns before entering the sleep
/// protocol. Kept tiny: on a loaded single-core box the yield itself is
/// what hands the producer the core.
const SPIN_ROUNDS: u32 = 3;

/// Empty sleep rounds (of [`IDLE_WAIT`] each) a spare worker lingers
/// past the over-target mark before retiring. Blocking sections arrive
/// in bursts; an eager retire turns each burst into a thread spawn.
const SPARE_LINGER_ROUNDS: u32 = 3;

/// A worker checks the injector every this-many dispatch loops even when
/// its own slot/deque still has work, bounding the queue delay of
/// non-worker producers. Prime, so the poll never phase-locks with a
/// power-of-two fairness budget.
const GLOBAL_POLL_INTERVAL: u64 = 31;

/// Most tasks one injector lock round may move into the polling worker's
/// deque (beyond the one returned), amortising the lock over a burst.
const INJECT_BATCH: usize = 32;

/// Shards in a [`ShardedGauge`]. Power of two; indexed by per-thread id.
const COUNTER_SHARDS: usize = 16;

/// A LIFO-slot task older than this is considered *stranded* — its owner
/// is stuck in a rendezvous the kernel cannot see — and becomes fair
/// game for thieves. Fresh slot tasks are never stolen: ping-ponging the
/// cache-hot task to a cold core is exactly what the slot exists to
/// prevent.
const LIFO_STALE: Duration = Duration::from_millis(1);

/// Most tasks one thread resumes nested inside one another: a worker's own
/// pickup plus the calls stacked on it (see [`Woken::run_as_call`]). A call
/// at the cap enqueues its callee and waits like any other, so a call chain
/// of any depth still completes — on more threads — and the stack a chain
/// can take from one thread is bounded.
const HANDOFF_DEPTH_CAP: usize = 16;

/// Pads a hot field to its own cache-line pair (128 bytes covers x86's
/// adjacent-line prefetcher and 128-byte Apple/POWER lines), so one
/// worker's counter traffic never invalidates a neighbour's.
#[repr(align(128))]
struct CachePadded<T>(T);

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's dense index, assigned on first use. Replaces the old
    /// shared `next_shard` round-robin cursor: one global `fetch_add` per
    /// thread *lifetime* instead of one per push.
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            v = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
            slot.set(v);
        }
        v
    })
}

/// A gauge sharded across cache-padded cells to keep `+1/-1` traffic off
/// any single line; cells are signed so a decrement may land on a
/// different cell than its increment. Folded (and clamped at zero) on
/// read.
struct ShardedGauge {
    cells: Box<[CachePadded<AtomicI64>]>,
}

impl ShardedGauge {
    fn new() -> ShardedGauge {
        ShardedGauge {
            cells: (0..COUNTER_SHARDS)
                .map(|_| CachePadded(AtomicI64::new(0)))
                .collect(),
        }
    }

    fn add(&self, delta: i64) {
        self.cells[thread_slot() & (COUNTER_SHARDS - 1)]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.cells
            .iter()
            .map(|cell| cell.0.load(Ordering::Relaxed))
            .sum::<i64>()
            .max(0) as u64
    }
}

/// One worker's private sleep latch. Splitting the old shared
/// `idle_mx`/`idle_cv` pair per worker means a producer's wake touches
/// exactly one sleeper and workers never serialize on a global mutex to
/// fall asleep.
struct Parker {
    /// Wake pending. Checked under the lock before waiting, so a notify
    /// delivered before the park is consumed, not lost.
    park_mx: Mutex<bool>,
    park_cv: Condvar,
}

impl Parker {
    fn new() -> Parker {
        Parker {
            park_mx: Mutex::new(false),
            park_cv: Condvar::default(),
        }
    }

    /// Returns whether a notify (as opposed to the timeout) ended the
    /// park. It stays pending: [`take_notified`](Self::take_notified)
    /// consumes it, once the latch is off the sleeper list.
    fn park(&self, timeout: Duration) -> bool {
        let mut notified = self.park_mx.lock();
        if !*notified {
            // eden-lint: timer(sched-stride)
            // eden-lint: nonblocking(the pool's own idle wait — a sleeping worker has no task)
            let _ = self.park_cv.wait_for(&mut notified, timeout);
        }
        *notified
    }

    /// Consume a pending notify — the caller owes the pool a `wakes_pending`
    /// decrement for it, because the producer that sent it counted it.
    fn take_notified(&self) -> bool {
        std::mem::take(&mut *self.park_mx.lock())
    }

    // Worst-case caller: `maybe_wake` runs under the registry shard
    // (spawn path) or a mailbox ring (backpressure overflow spill), so
    // the latch lock nests under both.
    // eden-lint: holds(registry-shard, mailbox-queue)
    fn notify(&self) {
        *self.park_mx.lock() = true;
        self.park_cv.notify_one();
    }
}

/// The one-task LIFO slot in front of a worker's deque. A plain atomic
/// pointer: the owner swaps tasks in and out; thieves may swap it empty
/// as a last resort when the task is stranded (owner stuck in an
/// invisible rendezvous).
struct LifoSlot {
    task: AtomicPtr<Task>,
}

impl LifoSlot {
    fn new() -> LifoSlot {
        LifoSlot {
            task: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    fn is_empty_hint(&self) -> bool {
        self.task.load(Ordering::Relaxed).is_null()
    }

    /// Install `task`, handing back whatever it displaced.
    fn put(&self, task: Arc<Task>) -> Option<Arc<Task>> {
        let fresh = Arc::into_raw(task).cast_mut();
        let old = self.task.swap(fresh, Ordering::AcqRel);
        (!old.is_null()).then(|| unsafe { Arc::from_raw(old) })
    }

    fn take(&self) -> Option<Arc<Task>> {
        // Cheap shared-load fast path so steal scans over empty slots
        // never take the line exclusive.
        if self.task.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let old = self.task.swap(std::ptr::null_mut(), Ordering::AcqRel);
        (!old.is_null()).then(|| unsafe { Arc::from_raw(old) })
    }
}

impl Drop for LifoSlot {
    fn drop(&mut self) {
        let ptr = *self.task.get_mut();
        if !ptr.is_null() {
            drop(unsafe { Arc::from_raw(ptr) });
        }
    }
}

/// One shard of the FIFO overflow injector. The only mutex left on the
/// dispatch path, and only for producers without a worker slot (spawns,
/// user-thread deliveries), fairness requeues, and deque overflow.
struct InjectShard {
    injq: Mutex<VecDeque<Arc<Task>>>,
    /// Relaxed mirror of the queue length so idle scans skip empty
    /// shards without locking.
    backlog: AtomicUsize,
}

impl InjectShard {
    // Worst-case callers: the spawn path runs under the registry shard
    // being written; a deque-overflow spill inside a bounded-send
    // backpressure wait runs under the mailbox ring.
    // eden-lint: holds(registry-shard, mailbox-queue)
    fn push(&self, task: Arc<Task>) {
        let mut q = self.injq.lock();
        q.push_back(task);
        self.backlog.store(q.len(), Ordering::Release);
    }

    /// Pop one task for the caller and move up to half of the remainder
    /// (capped at [`INJECT_BATCH`]) into `dest` — the calling worker's
    /// own deque — under the same lock hold, so a burst of spawns costs
    /// one lock round per batch rather than per task.
    fn pop_into(&self, dest: Option<&WorkDeque<Task>>) -> Option<Arc<Task>> {
        let mut q = self.injq.lock();
        let Some(first) = q.pop_front() else {
            self.backlog.store(0, Ordering::Release);
            return None;
        };
        if let Some(deque) = dest {
            let extra = (q.len() / 2).min(INJECT_BATCH);
            for _ in 0..extra {
                let Some(task) = q.pop_front() else { break };
                if let Err(task) = deque.push(task) {
                    q.push_front(task);
                    break;
                }
            }
        }
        self.backlog.store(q.len(), Ordering::Release);
        Some(first)
    }
}

/// One worker's share of the dispatch state. Aligned so neighbouring
/// workers' hot fields never share a cache line.
#[repr(align(128))]
struct WorkerSlot {
    deque: WorkDeque<Task>,
    lifo: LifoSlot,
    /// Epoch-nanoseconds of the last `lifo.put`, the staleness hint that
    /// gates slot stealing (see [`LIFO_STALE`]).
    lifo_since_ns: AtomicU64,
    parker: Arc<Parker>,
    steals: AtomicU64,
    /// Task pickups by this worker; folded into the stall monitor's
    /// progress signal.
    progress: AtomicU64,
}

/// Tuning knobs for the scheduler, carried in
/// [`KernelConfig::scheduler`](crate::KernelConfig::scheduler) and settable
/// through [`KernelBuilder::scheduler`](crate::KernelBuilder::scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Target worker-pool size. Blocking sections may transiently grow
    /// the pool past this (see the module docs); it never shrinks below.
    /// Defaults to the machine's available parallelism, floored at 2 so
    /// a single-core box still overlaps a blocked handler with progress.
    pub workers: usize,
}

/// Envelopes one task may drain per resume before it is re-enqueued
/// behind whatever else is runnable.
const FAIRNESS_BUDGET: usize = 64;

/// Consecutive LIFO-slot pickups one worker may take while colder work
/// waits in its deque or the injector, before the slot must yield a turn.
/// Irrelevant when nothing else is runnable locally.
const LIFO_BUDGET: u32 = 16;

impl Default for SchedulerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2);
        SchedulerConfig { workers }
    }
}

/// Scheduler gauges and counters, embedded in
/// [`KernelSnapshot`](crate::KernelSnapshot). All zero in `threads` mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedSnapshot {
    /// Live scheduler tasks (every active Eject, parked or not).
    pub resident_ejects: u64,
    /// Tasks currently parked on their mailbox (no thread, no queue slot).
    pub parked_ejects: u64,
    /// Tasks a worker claimed from another worker's deque or LIFO slot.
    pub sched_steals: u64,
    /// Callees resumed on their caller's stack — a pool worker's or any other
    /// thread's — instead of being queued for another thread (see
    /// [`Kernel::call`](crate::Kernel::call)).
    pub inline_handoffs: u64,
    /// Current worker-pool size (target plus live spares).
    pub workers: u64,
    /// Workers currently inside a blocking section.
    pub workers_blocked: u64,
    /// Workers registered in the sleep protocol (parked or re-checking).
    pub workers_idle: u64,
    /// Producer wake notifies counted but not yet consumed by a woken
    /// worker. Transiently 1 in steady state; stuck > 0 with no idle
    /// worker en route would mean a leaked token (the wake gate's
    /// failure mode), so this gauge is the one to watch in a stall.
    pub wake_tokens: u64,
    /// Tasks visible to dispatch right now: injector backlog plus deque
    /// occupancy plus occupied LIFO slots. A hint (relaxed reads), exact
    /// at rest.
    pub queued_tasks: u64,
    /// Stalls the monitor broke (runnable work, no pickup for two ticks): a
    /// wake owed and not sent, or a worker stuck where the kernel cannot see.
    pub monitor_rescues: u64,
    /// Idle-wait (10 ms) expiries that found runnable work — the other backstop;
    /// also counts a sleeper surfacing while the active workers are busy.
    pub idle_timeouts_with_work: u64,
    /// Slotless workers spawned, by blocking compensation or the monitor.
    pub spares_spawned: u64,
}

/// The coordinator state of one Eject: its behaviour box,
/// mailbox, and identity. Kept alive by the registry slot; dispatch
/// queues hold it only while it is `QUEUED`.
pub(crate) struct Task {
    core: Arc<MailboxCore>,
    ctx: Arc<EjectContext>,
    incarnation: u64,
    /// What the behaviour said of itself before it was boxed into `body`
    /// ([`EjectBehavior::replies_last`]): the whole of
    /// [`Woken::run_as_call`]'s test of a callee.
    replies_last: bool,
    /// The behaviour and resume bookkeeping, exclusively owned by
    /// whichever worker is running the task. Locked only for the take at
    /// resume start and the put-back at park (`task-body` is a leaf).
    body: Mutex<Option<TaskBody>>,
    /// Dispatch enqueue time, nanoseconds since the scheduler epoch.
    /// Feeds the obs plane's `sched_wait` stage.
    rq_enq_ns: AtomicU64,
    /// The death latch `Kernel::crash` waits on.
    died: Mutex<bool>,
    died_cv: Condvar,
}

struct TaskBody {
    behavior: Box<dyn EjectBehavior>,
    /// `activate` runs on the first resume, not at spawn: the spawner's
    /// shard lock must not be held across user code.
    activated: bool,
    /// The ambient span at spawn time, re-entered for every resume (a
    /// coordinator thread inherited it once at thread start).
    ambient: Option<SpanContext>,
}

impl Task {
    pub(crate) fn uid(&self) -> Uid {
        self.ctx.uid
    }

    fn take_body(&self) -> Option<TaskBody> {
        self.body.lock().take()
    }

    fn put_body(&self, body: TaskBody) {
        *self.body.lock() = Some(body);
    }

    /// Set under the lock `wait_dead` reads it under, before the notify: a waiter
    /// that read it unset is asleep when the notify comes. No wake-up is lost.
    fn mark_died(&self) {
        *self.died.lock() = true;
        self.died_cv.notify_all();
    }

    /// Block until this task's death latch trips (`true`) or `deadline` passes (`false`). Must
    /// not be called from a worker currently running the task (see [`is_resuming`]).
    pub(crate) fn wait_dead(&self, deadline: Option<Instant>) -> bool {
        blocking(|| {
            let mut died = self.died.lock();
            while !*died {
                match deadline.map(|at| at.saturating_duration_since(Instant::now())) {
                    None => self.died_cv.wait(&mut died),
                    Some(Duration::ZERO) => return false,
                    // eden-lint: timer(deadline)
                    Some(left) => _ = self.died_cv.wait_for(&mut died, left),
                }
            }
            true
        })
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("uid", &self.ctx.uid)
            .field("incarnation", &self.incarnation)
            .finish_non_exhaustive()
    }
}

/// Why a resume ended.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum Resume {
    /// Parked or re-enqueued; the task lives on.
    Yield,
    /// The task exited; `true` means it crashed.
    Dead(bool),
}

/// Thread-local identity of a worker: which scheduler it serves, which
/// slot (if any — spares have none), and the blocking-section depth
/// (only the outermost section counts the worker as lost).
struct WorkerTls {
    sched: Arc<Scheduler>,
    slot: Option<usize>,
    block_depth: u32,
}

thread_local! {
    static WORKER: RefCell<Option<WorkerTls>> = const { RefCell::new(None) };
    /// The tasks this thread is resuming right now, outermost first: a
    /// worker's own pickup, then — on any thread — one frame per call it
    /// runs inline. None of them can die before the innermost frame
    /// returns, which is what lets crash/shutdown recognise "waiting on
    /// myself" and skip the self-deadlock.
    static RESUMING: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// One resume on this thread's stack. Only a handler that could have been
/// run as a call has its reply watched, so `serving` stays 0 and `replied`
/// false in the frame of a task that does not declare
/// [`replies_last`](EjectBehavior::replies_last).
struct Frame {
    uid: Uid,
    /// The reply cell of the invocation being dispatched
    /// ([`ReplyHandle::cell_id`](crate::ReplyHandle)); 0 between dispatches.
    serving: usize,
    /// The handler has settled that cell.
    replied: bool,
}

/// Whether the calling thread is resuming `uid` right now, at any depth of
/// its inline frame stack.
pub(crate) fn is_resuming(uid: Uid) -> bool {
    RESUMING.with(|frames| frames.borrow().iter().any(|frame| frame.uid == uid))
}

fn resuming_depth() -> usize {
    RESUMING.with(|frames| frames.borrow().len())
}

/// The innermost frame's handler starts dispatching the invocation that
/// `cell` answers, or (0) has returned from it.
fn set_serving(cell: usize) {
    RESUMING.with(|frames| {
        if let Some(frame) = frames.borrow_mut().last_mut() {
            frame.serving = cell;
            frame.replied = false;
        }
    });
}

/// Reply cell `cell` was just settled on this thread (by a reply or by its
/// handle being dropped). If it answers the invocation the innermost frame
/// is dispatching, that handler has replied: its caller may go on, and on
/// this stack cannot until the handler returns. `try_with`: handles are
/// dropped from thread-exit destructors too.
pub(crate) fn note_settled(cell: usize) {
    let _ = RESUMING.try_with(|frames| {
        if let Some(frame) = frames.borrow_mut().last_mut() {
            frame.replied |= frame.serving == cell;
        }
    });
}

/// The calling thread is about to wait for something. A handler that
/// declared its reply its last act and has replied is breaking its word: in
/// a debug build it crashes here, alone — its caller has its reply. (Not
/// while it is already unwinding: a destructor's wait must not turn one
/// Eject's crash into the process's abort.)
pub(crate) fn note_wait() {
    debug_assert!(
        std::thread::panicking()
            || !RESUMING.with(|frames| frames.borrow().last().is_some_and(|frame| frame.replied)),
        "a behaviour that declares replies_last waited after its reply"
    );
}

/// Whether a wait for a reply from `responder` cannot succeed because the
/// wait itself is in the way: `responder` is suspended further down this
/// thread's stack and a handler above it has already replied, so its caller
/// could go on — and `responder` could come to serve this invocation — if
/// only this thread's stack unwound, which is what the wait prevents. Only a
/// behaviour that declares `replies_last` falsely gets here; a release build
/// tells it at once what a sleep could only tell it later.
pub(crate) fn strands_responder(responder: Uid) -> bool {
    let stranded = RESUMING.with(|frames| {
        let frames = frames.borrow();
        frames
            .iter()
            .position(|frame| frame.uid == responder)
            .is_some_and(|at| frames[at + 1..].iter().any(|frame| frame.replied))
    });
    if stranded {
        // The wait that is about to be called off was still a wait.
        note_wait();
    }
    stranded
}

/// Every write of a park state in this file. `from` is the set of states
/// the bit can hold when the write lands and `op` how it is written; both
/// must be what [`spec::TRANSITIONS`] says of the edge. An [`Op::Cas`]
/// proves its one from-state and reports whether it won. An [`Op::Store`]
/// is unconditional: the caller is the only actor that can take the bit
/// out of `from` (a sender can at most move it from one state of `from` to
/// another), so debug builds check that claim with a load just before the
/// store.
fn transition(bit: &AtomicU8, op: Op, from: &[u8], to: u8) -> bool {
    debug_assert!(
        from.iter().all(|&state| spec::allows_op(state, to, op)),
        "no {op:?} edge {from:?} -> {} in mailbox::spec",
        spec::state_name(to),
    );
    match op {
        Op::Cas => {
            // eden-lint: ordering(park-state-machine)
            bit.compare_exchange(from[0], to, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        }
        Op::Store => {
            debug_assert!(
                from.contains(&bit.load(Ordering::Relaxed)),
                "illegal parking-bit transition {} -> {}",
                spec::state_name(bit.load(Ordering::Relaxed)),
                spec::state_name(to),
            );
            bit.store(to, Ordering::Release);
            true
        }
    }
}

/// Run `f` as an explicit yield point: a rendezvous that may block the
/// calling thread for real (reply waits, backoff sleeps, bounded-mailbox
/// parks, death latches). On a non-worker thread this is a plain call; a
/// worker stops being active for the duration (outermost section only),
/// and says so the way [`Scheduler::note_block_enter`] describes.
///
/// Public so every crate that may run on a pool worker (eden-transput's
/// stream stages in particular) can wrap its genuinely-blocking sites —
/// `eden-lint --blocking` requires exactly that of any blocking call
/// reachable from worker context.
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    note_wait();
    let outermost = WORKER.with(|w| {
        let mut tls = w.borrow_mut();
        match tls.as_mut() {
            Some(worker) => {
                worker.block_depth += 1;
                (worker.block_depth == 1).then(|| (Arc::clone(&worker.sched), worker.slot))
            }
            None => None,
        }
    });
    if let Some((sched, slot)) = &outermost {
        sched.note_block_enter(*slot);
    }
    let out = f();
    if let Some((sched, _)) = &outermost {
        sched.note_block_exit();
    }
    WORKER.with(|w| {
        if let Some(worker) = w.borrow_mut().as_mut() {
            worker.block_depth -= 1;
        }
    });
    out
}

/// A `PARKED -> QUEUED` wake in the hands of the sender whose push won it:
/// the task is `QUEUED` and in no queue, so nobody else can make it run and
/// this sender must. A plain send hands it to [`Scheduler::enqueue`] at once;
/// a call gets it back from the mailbox and spends it in
/// [`run_as_call`](Woken::run_as_call).
#[must_use = "dropping a wake strands its task"]
pub(crate) struct Woken {
    pub(crate) sched: Arc<Scheduler>,
    pub(crate) task: Arc<Task>,
}

impl Woken {
    /// Caller-runs-callee, and the only place it is decided: resume the
    /// task on the calling thread's stack, so that a send followed by a wait
    /// costs a call instead of two thread hand-offs (queue, wake a sleeper,
    /// sleep, be woken). `settled` is the caller's probe of the reply it is
    /// about to wait for; the inline resume ends once it reads true.
    ///
    /// The election reads only what the call looks like from here, and
    /// whose thread this is — a pool worker's, an Eject's process, a user's
    /// — is no part of it. It runs the task when its behaviour declares
    /// [`replies_last`](EjectBehavior::replies_last), so that running it as
    /// a call returns when waiting for it would, fewer than
    /// [`HANDOFF_DEPTH_CAP`] resumes are stacked on this thread, and the
    /// thread is not a worker inside a [`blocking`] section. Holding the
    /// wake is what makes this a pickup like a worker's, the same store from
    /// the same `QUEUED`; and a task on this thread's frame stack is
    /// `RUNNING` and yields no wake, so re-entrant chains cannot nest a task
    /// inside itself. Anything declined goes where every wake goes, and
    /// whatever the resume leaves unsettled (the callee parked the
    /// [`ReplyHandle`](crate::ReplyHandle)) the caller then waits for inside
    /// [`blocking`] as it always has.
    pub(crate) fn run_as_call(self, settled: &dyn Fn() -> bool) {
        let Woken { sched, task } = self;
        let blocked =
            WORKER.with(|w| w.borrow().as_ref().is_some_and(|worker| worker.block_depth > 0));
        if !task.replies_last || blocked || resuming_depth() >= HANDOFF_DEPTH_CAP {
            return sched.enqueue(task);
        }
        // The run-queue wait this stamps the start of is over at once.
        sched.note_wake(&task);
        sched.handoffs.add(1);
        sched.run_task(task, Some(settled));
    }
}

/// The worker pool and its lock-free dispatch state. One per kernel,
/// shared with every worker thread.
pub(crate) struct Scheduler {
    /// Per-worker dispatch state, indexed by worker slot. Fixed at
    /// construction; spares beyond `target_workers` own no slot and
    /// work purely by injector polls and steals.
    slots: Box<[WorkerSlot]>,
    injector: Box<[InjectShard]>,
    inject_mask: usize,
    target_workers: usize,
    epoch: Instant,
    /// Whether an observability plane is installed to read the run-queue
    /// stamps. Without one nothing consumes them, and no dispatch — an
    /// inline call least of all — reads the clock for them.
    stamps: bool,
    /// Workers inside the sleep protocol (announced on `sleepers`, about
    /// to park or parked). The producer side of the Dekker handshake in
    /// [`Scheduler::maybe_wake`].
    idle_count: CachePadded<AtomicUsize>,
    /// The host's available parallelism, sampled once at pool build.
    /// Producers stop waking sleepers once this many workers are awake
    /// and unblocked: extra runnable threads beyond the core count add
    /// context switches, never throughput — the single rule that makes
    /// oversized pools free instead of regressive on small machines.
    cpu_quota: usize,
    /// Notifies sent but not yet consumed by the woken worker. While
    /// this is non-zero a worker is already on its way to the backlog,
    /// so producers skip further wakes — the wake-storm dampener that
    /// keeps pool sizes beyond the core count close to free: without
    /// it, every push while any worker sleeps pays a latch round and
    /// makes one more thread runnable, and an oversubscribed box burns
    /// the curve's headroom on context switches. Wake rate is thereby
    /// throttled to the rate woken workers actually reach the CPU.
    wakes_pending: CachePadded<AtomicUsize>,
    /// Latches of workers currently inside the sleep protocol. Producers
    /// pop one to wake; a sleeper that finds work (or times out) removes
    /// itself.
    sleepers: Mutex<Vec<Arc<Parker>>>,
    live_workers: AtomicUsize,
    blocked_workers: AtomicUsize,
    tasks_alive: ShardedGauge,
    parked: ShardedGauge,
    /// Calls run inline, by whichever thread made them.
    handoffs: ShardedGauge,
    /// Steal/pickup counts of slotless spare workers (slotted workers
    /// count on their own padded lines).
    spare_steals: CachePadded<AtomicU64>,
    spare_progress: CachePadded<AtomicU64>,
    /// What the backstops caught ([`SchedSnapshot`]'s last three fields).
    monitor_rescues: AtomicU64,
    idle_timeouts_with_work: AtomicU64,
    spares_spawned: AtomicU64,
    worker_seq: AtomicUsize,
    stopping: AtomicBool,
    /// `wait_all_dead` sleeps here; signalled on every task death.
    death_mx: Mutex<()>,
    death_cv: Condvar,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// `stamps`: whether anything will read the run-queue wait (the kernel
    /// builder knows: it installs the observability plane or does not).
    pub(crate) fn new(config: SchedulerConfig, stamps: bool) -> Arc<Scheduler> {
        let workers = config.workers.max(1);
        let slots: Box<[WorkerSlot]> = (0..workers)
            .map(|_| WorkerSlot {
                deque: WorkDeque::new(),
                lifo: LifoSlot::new(),
                lifo_since_ns: AtomicU64::new(0),
                parker: Arc::new(Parker::new()),
                steals: AtomicU64::new(0),
                progress: AtomicU64::new(0),
            })
            .collect();
        // One injector shard a worker, rounded up so a mask picks one.
        let injector: Box<[InjectShard]> = (0..workers.next_power_of_two())
            .map(|_| InjectShard {
                injq: Mutex::new(VecDeque::new()),
                backlog: AtomicUsize::new(0),
            })
            .collect();
        let sched = Arc::new(Scheduler {
            slots,
            inject_mask: injector.len() - 1,
            injector,
            target_workers: workers,
            epoch: Instant::now(),
            stamps,
            idle_count: CachePadded(AtomicUsize::new(0)),
            cpu_quota: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(workers),
            wakes_pending: CachePadded(AtomicUsize::new(0)),
            sleepers: Mutex::new(Vec::new()),
            live_workers: AtomicUsize::new(0),
            blocked_workers: AtomicUsize::new(0),
            tasks_alive: ShardedGauge::new(),
            parked: ShardedGauge::new(),
            handoffs: ShardedGauge::new(),
            spare_steals: CachePadded(AtomicU64::new(0)),
            spare_progress: CachePadded(AtomicU64::new(0)),
            monitor_rescues: AtomicU64::new(0),
            idle_timeouts_with_work: AtomicU64::new(0),
            spares_spawned: AtomicU64::new(0),
            worker_seq: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
            death_mx: Mutex::new(()),
            death_cv: Condvar::default(),
            threads: Mutex::new(Vec::new()),
        });
        for _ in 0..workers {
            sched.spawn_worker();
        }
        let mon = Arc::clone(&sched);
        if let Ok(handle) = std::thread::Builder::new()
            .name("eden-sched-mon".into())
            .spawn(move || monitor_main(mon))
        {
            sched.threads.lock().push(handle);
        }
        sched
    }

    pub(crate) fn snapshot(&self) -> SchedSnapshot {
        let slot_steals: u64 = self
            .slots
            .iter()
            .map(|slot| slot.steals.load(Ordering::Relaxed))
            .sum();
        let queued: u64 = self
            .injector
            .iter()
            .map(|shard| shard.backlog.load(Ordering::Relaxed) as u64)
            .sum::<u64>()
            + self
                .slots
                .iter()
                .map(|slot| {
                    slot.deque.len_hint() as u64 + u64::from(!slot.lifo.is_empty_hint())
                })
                .sum::<u64>();
        SchedSnapshot {
            resident_ejects: self.tasks_alive.sum(),
            parked_ejects: self.parked.sum(),
            sched_steals: slot_steals + self.spare_steals.0.load(Ordering::Relaxed),
            inline_handoffs: self.handoffs.sum(),
            workers: self.live_workers.load(Ordering::Relaxed) as u64,
            workers_blocked: self.blocked_workers.load(Ordering::Relaxed) as u64,
            workers_idle: self.idle_count.0.load(Ordering::Relaxed) as u64,
            wake_tokens: self.wakes_pending.0.load(Ordering::Relaxed) as u64,
            queued_tasks: queued,
            monitor_rescues: self.monitor_rescues.load(Ordering::Relaxed),
            idle_timeouts_with_work: self.idle_timeouts_with_work.load(Ordering::Relaxed),
            spares_spawned: self.spares_spawned.load(Ordering::Relaxed),
        }
    }

    /// Create the task for a freshly spawned (or reactivated) Eject and
    /// queue its first resume, which runs `activate`. Called with the
    /// registry shard lock held — the push is lock-ordered under it, and
    /// `replies_last` was asked of the behaviour before the lock was taken.
    pub(crate) fn spawn_task(
        self: &Arc<Scheduler>,
        core: Arc<MailboxCore>,
        ctx: Arc<EjectContext>,
        incarnation: u64,
        behavior: Box<dyn EjectBehavior>,
        replies_last: bool,
        ambient: Option<SpanContext>,
    ) -> Arc<Task> {
        let task = Arc::new(Task {
            core: Arc::clone(&core),
            ctx,
            incarnation,
            replies_last,
            body: Mutex::new(Some(TaskBody {
                behavior,
                activated: false,
                ambient,
            })),
            rq_enq_ns: AtomicU64::new(0),
            died: Mutex::new(false),
            died_cv: Condvar::default(),
        });
        core.attach_task(self, &task);
        self.tasks_alive.add(1);
        // A fresh task's bit is PARKED and nobody else can see it yet, so
        // a plain store (not a CAS) is enough for the spawn enqueue.
        transition(core.park_bit(), Op::Store, &[park::PARKED], park::QUEUED);
        // Spawns go FIFO through the injector, never the LIFO slot: a
        // spawn burst must fan out across workers, and activation order
        // should follow spawn order.
        self.push_fifo(Arc::clone(&task));
        task
    }

    /// Queue a task whose parking bit just flipped `PARKED -> QUEUED`
    /// (the mailbox wake path).
    pub(crate) fn enqueue(self: &Arc<Scheduler>, task: Arc<Task>) {
        self.note_wake(&task);
        match self.local_slot() {
            Some(i) => {
                // Hot path: a worker delivering mid-resume. The wakened
                // task goes to this worker's LIFO slot — its mailbox is
                // the hottest data in the system — and wakes no sibling:
                // this worker runs it next itself.
                if let Some(displaced) = self.slots[i].lifo.put(task) {
                    self.push_local_deque(i, displaced);
                    self.maybe_wake();
                }
                self.slots[i]
                    .lifo_since_ns
                    .store(self.now_ns(), Ordering::Relaxed);
            }
            None => self.push_inject(task),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn stamp_enqueue(&self, task: &Task) {
        if self.stamps {
            task.rq_enq_ns.store(self.now_ns(), Ordering::Relaxed);
        }
    }

    /// What every `PARKED -> QUEUED` wake is owed, wherever it is spent.
    fn note_wake(&self, task: &Task) {
        self.parked.add(-1);
        self.stamp_enqueue(task);
    }

    /// The calling thread's worker slot on *this* scheduler, if it has one
    /// and is dispatching: a worker inside a blocking section has left, and
    /// what it sends from there must not be left to it in its own slot.
    fn local_slot(self: &Arc<Scheduler>) -> Option<usize> {
        WORKER.with(|w| {
            w.borrow().as_ref().and_then(|worker| {
                if Arc::ptr_eq(&worker.sched, self) && worker.block_depth == 0 {
                    worker.slot
                } else {
                    None
                }
            })
        })
    }

    /// FIFO admission: stamp and hand to the injector. Spawns and
    /// fairness-budget requeues come through here — a requeue pushed to
    /// the owner's LIFO deque would be popped right back, defeating the
    /// budget.
    fn push_fifo(&self, task: Arc<Task>) {
        self.stamp_enqueue(&task);
        self.push_inject(task);
    }

    fn push_inject(&self, task: Arc<Task>) {
        self.injector[thread_slot() & self.inject_mask].push(task);
        self.maybe_wake();
    }

    /// Owner-side push onto worker `i`'s deque. On overflow, half the
    /// deque (its cold top) spills to the injector so the push lands.
    fn push_local_deque(&self, i: usize, task: Arc<Task>) {
        if let Err(task) = self.slots[i].deque.push(task) {
            let shard = &self.injector[thread_slot() & self.inject_mask];
            for _ in 0..DEQUE_CAP / 2 {
                let Some(cold) = self.slots[i].deque.steal() else { break };
                shard.push(cold);
            }
            if let Err(task) = self.slots[i].deque.push(task) {
                shard.push(task);
            }
        }
    }

    /// The wake discipline's one invariant: *whenever a task is runnable and
    /// no worker is active (awake, unblocked, not idle), a wake is in flight
    /// or a worker is being spawned.* A producer keeps it here, after its
    /// push. A worker keeps it wherever it stops being active — going to
    /// sleep ([`worker_main`]), entering a blocking section
    /// ([`note_block_enter`](Scheduler::note_block_enter)), retiring — by the
    /// same steps in the same order: say so (announce idle, count itself
    /// blocked, leave `live`), `SeqCst` fence, then look at the queues.
    /// Whichever fence is later in the total order sees the other side's
    /// write: the producer finds the worker gone from `active` and wakes a
    /// sleeper, or the leaving worker finds the push. So no push falls into a
    /// look-then-leave gap, and a leaving worker is never the "active" one
    /// its own push was left to.
    ///
    /// Three gates dampen wake storms. No sleeper announced: nobody to wake,
    /// and `note_block_enter` sees to it that somebody is active then. A
    /// notify still in flight (`wakes_pending > 0`): that worker re-scans
    /// everything when it reaches the CPU, and returns the token if it exits
    /// instead, so more wakes only turn queue depth into context switches.
    /// `cpu_quota` workers already active: a wake buys contention, not
    /// capacity (a worker glued to a local backlog still lets the injector
    /// in every [`GLOBAL_POLL_INTERVAL`] rounds). `active` errs towards extra
    /// wakes — a worker re-checking inside the sleep protocol still counts
    /// idle — never missed ones.
    fn maybe_wake(&self) {
        // eden-lint: ordering(dekker-store-load)
        fence(Ordering::SeqCst);
        if self.idle_count.0.load(Ordering::Relaxed) == 0 {
            return;
        }
        if self.wakes_pending.0.load(Ordering::Relaxed) > 0 {
            return;
        }
        let live = self.live_workers.load(Ordering::Relaxed);
        let blocked = self.blocked_workers.load(Ordering::Relaxed);
        let idle = self.idle_count.0.load(Ordering::Relaxed);
        let active = live.saturating_sub(blocked).saturating_sub(idle);
        if active >= self.cpu_quota {
            return;
        }
        self.wake_sleeper();
    }

    /// Notify one registered sleeper, counting the wake in flight.
    fn wake_sleeper(&self) -> bool {
        let sleeper = self.pop_sleeper();
        if let Some(parker) = &sleeper {
            self.wakes_pending.0.fetch_add(1, Ordering::SeqCst);
            parker.notify();
        }
        sleeper.is_some()
    }

    /// Return one wake token, floor zero: `stop()`'s shutdown notifies
    /// are deliberately uncounted, so a consumer may see more consumed
    /// notifies than counted ones.
    fn consume_wake_token(&self) {
        let _ = self
            .wakes_pending
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1));
    }

    // Worst-case caller: `maybe_wake` under the registry shard (spawn
    // path) or a mailbox ring (backpressure overflow spill).
    // eden-lint: holds(registry-shard, mailbox-queue)
    fn pop_sleeper(&self) -> Option<Arc<Parker>> {
        self.sleepers.lock().pop()
    }

    fn remove_sleeper(&self, parker: &Arc<Parker>) {
        self.sleepers.lock().retain(|p| !Arc::ptr_eq(p, parker));
    }

    /// Whether any injector shard advertises backlog. Relaxed scan over
    /// a handful of padded counters; exact at rest.
    fn inject_backlog(&self) -> bool {
        self.injector
            .iter()
            .any(|shard| shard.backlog.load(Ordering::Relaxed) > 0)
    }

    /// Any stranded LIFO slot anywhere — the one backlog a beyond-quota
    /// sleeper must rejoin for, because its owner by definition is not
    /// dispatching and the active workers may never run dry enough to
    /// reach their second steal pass.
    fn lifo_any_stranded(&self) -> bool {
        (0..self.slots.len()).any(|i| self.lifo_stranded(i))
    }

    /// Whether worker `i`'s LIFO slot holds a *stranded* task: occupied
    /// for longer than [`LIFO_STALE`], meaning its owner stopped
    /// dispatching without flushing (a rendezvous the kernel cannot see).
    fn lifo_stranded(&self, i: usize) -> bool {
        !self.slots[i].lifo.is_empty_hint()
            && self
                .now_ns()
                .saturating_sub(self.slots[i].lifo_since_ns.load(Ordering::Relaxed))
                > LIFO_STALE.as_nanos() as u64
    }

    /// The idle re-check and the stall monitor's "is there work" probe.
    /// A *fresh* LIFO slot does not count: its owner is about to run it,
    /// and counting it would keep idle workers awake polling for a task
    /// they must not steal.
    fn has_runnable(&self) -> bool {
        self.inject_backlog()
            || self
                .slots
                .iter()
                .enumerate()
                .any(|(i, slot)| !slot.deque.is_empty_hint() || self.lifo_stranded(i))
    }

    /// Drain one task from the injector, preferring the shard indexed by
    /// the caller (so workers spread over shards), batching extras into
    /// the calling worker's deque.
    fn pop_inject(&self, me: Option<usize>) -> Option<Arc<Task>> {
        let start = me.unwrap_or_else(thread_slot);
        for step in 0..self.injector.len() {
            let shard = &self.injector[(start + step) & self.inject_mask];
            if shard.backlog.load(Ordering::Acquire) == 0 {
                continue;
            }
            let dest = me.map(|i| &self.slots[i].deque);
            if let Some(task) = shard.pop_into(dest) {
                return Some(task);
            }
        }
        None
    }

    /// Pick the next runnable task for a worker: periodic injector poll,
    /// then LIFO slot (budgeted), own deque, injector, steal.
    fn next_task(&self, me: Option<usize>, lifo_streak: &mut u32, tick: u64) -> Option<Arc<Task>> {
        if tick.is_multiple_of(GLOBAL_POLL_INTERVAL) {
            // Even a worker with endless local work periodically lets
            // the injector in, bounding external producers' queue delay.
            if let Some(task) = self.pop_inject(me) {
                *lifo_streak = 0;
                return Some(task);
            }
        }
        if let Some(i) = me {
            let slot = &self.slots[i];
            let colder_waiting = !slot.deque.is_empty_hint() || self.inject_backlog();
            if *lifo_streak < LIFO_BUDGET || !colder_waiting {
                if let Some(task) = slot.lifo.take() {
                    *lifo_streak += 1;
                    return Some(task);
                }
            }
            if let Some(task) = slot.deque.pop() {
                *lifo_streak = 0;
                return Some(task);
            }
        }
        *lifo_streak = 0;
        if let Some(task) = self.pop_inject(me) {
            return Some(task);
        }
        self.steal(me)
    }

    /// Steal for a worker that found nothing local: first pass batches
    /// from deque tops (half the victim's backlog per session), second
    /// pass rescues stranded LIFO-slot tasks.
    fn steal(&self, me: Option<usize>) -> Option<Arc<Task>> {
        let n = self.slots.len();
        let start = match me {
            Some(i) => i + 1,
            None => thread_slot(),
        };
        for step in 0..n {
            let victim = (start + step) % n;
            if me == Some(victim) {
                continue;
            }
            if let Some(task) = self.steal_from(victim, me) {
                self.note_steal(me);
                return Some(task);
            }
        }
        for step in 0..n {
            let victim = (start + step) % n;
            if me == Some(victim) {
                continue;
            }
            if self.lifo_stranded(victim) {
                if let Some(task) = self.slots[victim].lifo.take() {
                    self.note_steal(me);
                    return Some(task);
                }
            }
        }
        None
    }

    /// One steal session against `victim`'s deque: claim one task to run
    /// plus up to half the victim's remaining backlog into the thief's
    /// own deque — each claim its own proven CAS (see [`crate::deque`]
    /// for why a range CAS would double-run tasks).
    ///
    /// On a single-core quota the batch is skipped: the thief only runs
    /// while the victim is off-CPU, so one task covers the gap and the
    /// rest of the backlog stays in the victim's (cache-warm) deque for
    /// it to resume.
    fn steal_from(&self, victim: usize, me: Option<usize>) -> Option<Arc<Task>> {
        let victim_deque = &self.slots[victim].deque;
        let first = victim_deque.steal()?;
        if let Some(i) = me.filter(|_| self.cpu_quota > 1) {
            let dest = &self.slots[i].deque;
            for _ in 0..victim_deque.len_hint() / 2 {
                let Some(task) = victim_deque.steal() else { break };
                if let Err(task) = dest.push(task) {
                    self.push_inject(task);
                    break;
                }
            }
        }
        Some(first)
    }

    fn note_steal(&self, me: Option<usize>) {
        match me {
            Some(i) => self.slots[i].steals.fetch_add(1, Ordering::Relaxed),
            None => self.spare_steals.0.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn note_progress(&self, me: Option<usize>) {
        match me {
            Some(i) => self.slots[i].progress.fetch_add(1, Ordering::Relaxed),
            None => self.spare_progress.0.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Total task pickups, folded for the stall monitor.
    fn total_progress(&self) -> u64 {
        self.slots
            .iter()
            .map(|slot| slot.progress.load(Ordering::Relaxed))
            .sum::<u64>()
            + self.spare_progress.0.load(Ordering::Relaxed)
    }

    /// Move whatever sits in worker `i`'s LIFO slot onto its deque, where
    /// thieves can see it (a fresh slot task is not stealable). Called when
    /// the worker is about to stop dispatching, and wakes nobody: the caller
    /// is still counted active, so its next step decides that.
    fn flush_lifo(&self, i: usize) {
        if let Some(task) = self.slots[i].lifo.take() {
            self.push_local_deque(i, task);
        }
    }

    fn spawn_worker(self: &Arc<Scheduler>) {
        let idx = self.worker_seq.fetch_add(1, Ordering::Relaxed);
        if idx >= self.slots.len() {
            self.spares_spawned.fetch_add(1, Ordering::Relaxed);
        }
        self.live_workers.fetch_add(1, Ordering::AcqRel);
        let sched = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("eden-sched-{idx}"))
            .spawn(move || worker_main(sched, idx));
        match spawned {
            Ok(handle) => self.threads.lock().push(handle),
            Err(_) => {
                // Out of threads: run degraded rather than dead. The
                // remaining workers still drain every queue.
                self.live_workers.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// The calling worker (in slot `slot`, if it has one) stops dispatching
    /// for a blocking section, in the sleeper's order (see
    /// [`maybe_wake`](Scheduler::maybe_wake)): it puts what it holds where
    /// others can take it, counts itself blocked, and only then — one
    /// decision, here — looks at what it leaves behind.
    ///
    /// *Capacity*: fewer than `target_workers` are left able to run. A
    /// registered sleeper stands in at futex cost and needs no wake until
    /// there is work; with none, spawn a spare, which starts active and scans
    /// every queue. This head-count is what spares a producer, who may hold a
    /// registry or mailbox lock, from ever spawning: an unblocked worker
    /// always exists, so "no sleeper" means "somebody active". *Work*:
    /// otherwise a queued task — this worker's own flush, or a push that
    /// counted it active — gets a producer's `maybe_wake`, now that the
    /// leaver is out of the `active` count.
    fn note_block_enter(self: &Arc<Scheduler>, slot: Option<usize>) {
        if let Some(i) = slot {
            self.flush_lifo(i);
        }
        let blocked = self.blocked_workers.fetch_add(1, Ordering::AcqRel) + 1;
        if self.stopping.load(Ordering::Acquire) {
            return;
        }
        let able = self.live_workers.load(Ordering::Acquire).saturating_sub(blocked);
        if able < self.target_workers && self.idle_count.0.load(Ordering::Acquire) == 0 {
            self.spawn_worker();
        } else {
            self.recheck_after_leaving();
        }
    }

    /// The calling worker has just left `active` (blocked, or retired): look
    /// at the queues as a sleeper does once announced, and be the producer of
    /// any task they hold.
    fn recheck_after_leaving(&self) {
        // eden-lint: ordering(dekker-store-load)
        fence(Ordering::SeqCst);
        if self.has_runnable() {
            self.maybe_wake();
        }
    }

    fn note_block_exit(&self) {
        self.blocked_workers.fetch_sub(1, Ordering::AcqRel);
    }

    /// Resume one task: drain up to the fairness budget, then park or
    /// requeue; run the death path if an exit envelope (or a panic in the
    /// behaviour) ends it. An inline resume (see [`Woken::run_as_call`]) passes
    /// the caller's `settled` probe and ends as soon as it reads true.
    fn run_task(&self, task: Arc<Task>, settled: Option<&dyn Fn() -> bool>) {
        transition(task.core.park_bit(), Op::Store, &[park::QUEUED], park::RUNNING);
        RESUMING.with(|frames| {
            frames.borrow_mut().push(Frame {
                uid: task.uid(),
                serving: 0,
                replied: false,
            })
        });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.resume(&task, settled)
        }));
        RESUMING.with(|frames| frames.borrow_mut().pop());
        match outcome {
            Ok(Resume::Yield) => {}
            Ok(Resume::Dead(crashed)) => self.reap(&task, crashed),
            Err(_) => {
                // The behaviour panicked mid-dispatch. Thread-per-Eject
                // lost the coordinator thread here; the pool must survive
                // instead, so the task dies as a crash and the worker
                // lives on. The behaviour box was dropped by the unwind,
                // releasing any parked replies.
                task.ctx.begin_stop();
                self.reap(&task, true);
            }
        }
    }

    fn resume(&self, task: &Arc<Task>, settled: Option<&dyn Fn() -> bool>) -> Resume {
        let Some(mut body) = task.take_body() else {
            // Only reachable if a stale queue entry outlived the death
            // path; nothing to run.
            return Resume::Yield;
        };
        // Entered even when there is nothing to enter: an inline resume
        // must not run under its caller's invocation span.
        let _span = eden_core::span::enter(body.ambient);
        let waited = self.stamps.then(|| {
            let rq_enq = Duration::from_nanos(task.rq_enq_ns.load(Ordering::Relaxed));
            (self.epoch + rq_enq, Instant::now())
        });
        if !body.activated {
            body.activated = true;
            body.behavior.activate(&task.ctx);
        }
        let bit = task.core.park_bit();
        let mut budget = FAIRNESS_BUDGET;
        loop {
            if task.ctx.deactivate_requested() {
                return self.die(task, body, false);
            }
            if budget == 0 {
                // Budget exhausted: go to the back of the line so other
                // runnable tasks (a million parked streams' worth) get a
                // worker before this pipeline's next batch.
                return self.requeue(task, body);
            }
            match task.core.pop() {
                Some(envelope) if settled.is_some_and(|settled| settled()) => {
                    // An inline resume is over once the caller has its
                    // reply. With the mailbox empty that is the ordinary
                    // park below; mail from other senders goes back and
                    // waits its turn like a spent budget.
                    task.core.unpop(envelope);
                    return self.requeue(task, body);
                }
                Some(Envelope::Invocation(inv, mut reply)) => {
                    budget -= 1;
                    let _guard = reply.begin_service_at(waited);
                    if task.replies_last {
                        set_serving(reply.cell_id());
                    }
                    dispatch(body.behavior.as_mut(), &task.ctx, inv, reply);
                    if task.replies_last {
                        set_serving(0);
                    }
                }
                Some(Envelope::Internal(event)) => {
                    budget -= 1;
                    body.behavior.internal(&task.ctx, event);
                }
                Some(Envelope::Crash) => return self.die(task, body, true),
                Some(Envelope::Shutdown) => return self.die(task, body, false),
                None => {
                    // Publish the body (and the parked gauge) BEFORE the
                    // CAS advertises PARKED: the instant the CAS succeeds a
                    // sender may re-enqueue this task and another worker
                    // resume it, and that worker must find the body in
                    // place — parking after publishing would let the wake
                    // race ahead of the state machine and be lost.
                    task.put_body(body);
                    self.parked.add(1);
                    if transition(bit, Op::Cas, &[park::RUNNING], park::PARKED) {
                        return Resume::Yield;
                    }
                    // A sender marked us dirty between the empty pop and
                    // the park attempt; reclaim the body and keep draining.
                    self.parked.add(-1);
                    transition(bit, Op::Store, &[park::DIRTY], park::RUNNING);
                    body = match task.take_body() {
                        Some(reclaimed) => reclaimed,
                        // Unreachable: the task is in no run queue while
                        // RUNNING, so nobody else takes it.
                        None => return Resume::Yield,
                    };
                }
            }
        }
    }

    /// End a resume with mail still queued: FIFO through the injector — the
    /// LIFO slot would run the task right back.
    fn requeue(&self, task: &Arc<Task>, body: TaskBody) -> Resume {
        transition(
            task.core.park_bit(),
            Op::Store,
            &[park::RUNNING, park::DIRTY],
            park::QUEUED,
        );
        task.put_body(body);
        self.push_fifo(Arc::clone(task));
        Resume::Yield
    }

    /// The in-resume half of the death path: mirror of the coordinator
    /// thread's exit tail, up to dropping the behaviour.
    fn die(&self, task: &Arc<Task>, body: TaskBody, crashed: bool) -> Resume {
        let TaskBody { mut behavior, .. } = body;
        behavior.deactivating(&task.ctx);
        task.ctx.begin_stop();
        // Dropping the behaviour releases any parked ReplyHandles,
        // unblocking whoever waits on this Eject.
        drop(behavior);
        Resume::Dead(crashed)
    }

    /// The post-behaviour half of the death path: close the mailbox (so
    /// queued invocations fail fast and later sends bounce), reap worker
    /// processes, and tell the kernel.
    fn reap(&self, task: &Arc<Task>, crashed: bool) {
        transition(
            task.core.park_bit(),
            Op::Store,
            &[park::RUNNING, park::DIRTY],
            park::DEAD,
        );
        drop(task.core.close());
        task.ctx.join_workers();
        if let Some(kernel) = task.ctx.kernel.upgrade() {
            kernel.on_eject_exit(task.uid(), task.incarnation, crashed);
        }
        task.mark_died();
        // As in `Task::mark_died`: the count falls under the waiter's lock.
        let _death = self.death_mx.lock();
        self.tasks_alive.add(-1);
        self.death_cv.notify_all();
    }

    /// Block until every task has died, excluding (when called from a
    /// worker mid-resume) the tasks this thread is currently running —
    /// which cannot die before this call returns.
    pub(crate) fn wait_all_dead(&self) {
        let allow = resuming_depth() as u64;
        blocking(|| {
            let mut death = self.death_mx.lock();
            while self.tasks_alive.sum() > allow {
                self.death_cv.wait(&mut death);
            }
        });
    }

    /// Stop the pool: workers drain what is queued, then exit. Idempotent.
    /// Never joins the calling thread (shutdown can originate on a
    /// worker).
    pub(crate) fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        fence(Ordering::SeqCst);
        while let Some(parker) = self.pop_sleeper() {
            parker.notify();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.threads.lock());
        let current = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() != current {
                // eden-lint: nonblocking(teardown: the joined workers are draining to exit)
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("target_workers", &self.target_workers)
            .field("injector_shards", &self.injector.len())
            .field("snapshot", &self.snapshot())
            .finish_non_exhaustive()
    }
}

fn worker_main(sched: Arc<Scheduler>, idx: usize) {
    // The first `target_workers` spawns own a slot; later spawns are
    // spares (blocking compensation, stall rescue) and work slotless.
    let me = (idx < sched.slots.len()).then_some(idx);
    let parker = match me {
        Some(i) => Arc::clone(&sched.slots[i].parker),
        None => Arc::new(Parker::new()),
    };
    WORKER.with(|w| {
        *w.borrow_mut() = Some(WorkerTls {
            sched: Arc::clone(&sched),
            slot: me,
            block_depth: 0,
        })
    });
    let mut lifo_streak = 0u32;
    let mut tick = 0u64;
    let mut spins = 0u32;
    // Consecutive empty sleep rounds, for the spare linger rule below.
    let mut idle_rounds = 0u32;
    // Whether this worker owes the pool a wake token: set when a notify
    // ends a park, returned on the first task pickup (or once the worker
    // concludes there is nothing to pick up). Holding it through the
    // scan keeps the producer-side wake gate closed for the whole
    // notify-to-pickup window, so queue depth during a scheduling delay
    // costs one wake, not one per push.
    let mut holds_token = false;
    loop {
        tick = tick.wrapping_add(1);
        if let Some(task) = sched.next_task(me, &mut lifo_streak, tick) {
            spins = 0;
            idle_rounds = 0;
            if holds_token {
                holds_token = false;
                sched.consume_wake_token();
            }
            sched.note_progress(me);
            sched.run_task(task, None);
            continue;
        }
        if sched.stopping.load(Ordering::Acquire) {
            break;
        }
        if spins < SPIN_ROUNDS {
            spins += 1;
            std::thread::yield_now();
            continue;
        }
        spins = 0;
        // Nothing claimable anywhere: a held token's claim is spent.
        // Release it before announcing idle, so producers can aim their
        // next wake at whichever sleeper is closest to new work.
        if holds_token {
            holds_token = false;
            sched.consume_wake_token();
        }
        // A spare beyond target retires only after lingering through a
        // few empty sleep rounds: blocking sections arrive in bursts,
        // and retiring on the first quiet moment makes the pool pay a
        // thread spawn per burst. The check races other retirees at
        // worst into a transient under-target, which the next blocking
        // section corrects. Slotted workers never retire.
        let live = sched.live_workers.load(Ordering::Acquire);
        let blocked = sched.blocked_workers.load(Ordering::Acquire);
        if me.is_none()
            && idle_rounds >= SPARE_LINGER_ROUNDS
            && live.saturating_sub(blocked) > sched.target_workers
        {
            break;
        }
        // Sleep protocol: register the latch, announce, then re-check.
        // The registration must precede the announce so a producer that
        // observes `idle_count > 0` finds a latch to pop; the fence
        // pairs with `maybe_wake`'s (see there).
        sched.sleepers.lock().push(Arc::clone(&parker));
        sched.idle_count.0.fetch_add(1, Ordering::SeqCst);
        // eden-lint: ordering(dekker-store-load)
        fence(Ordering::SeqCst);
        if !sched.has_runnable() && !sched.stopping.load(Ordering::Acquire) {
            // Park rounds continue across bare timeouts while the
            // active set already fills the core quota AND demonstrably
            // dispatches: a timeout is not an invitation, and a sleeper
            // that rejoined on every 10ms tick of a saturated pool
            // would reintroduce exactly the contention the wake gate
            // exists to prevent. The sleeper stays registered
            // throughout, so a producer-side notify (sent the moment
            // `active` dips below quota) still lands. Spares always
            // surface so the retire check can run, and a stranded LIFO
            // slot anywhere overrides the quota — its owner is stuck,
            // and rescuing it needs an idle thief.
            //
            // `active` can lie: a behaviour may block its worker on a
            // primitive the kernel cannot see (a bounded channel to its
            // own worker process), leaving the worker counted active
            // while it dispatches nothing. So saturation must be
            // re-proven each round by the pickup counter — a genuinely
            // busy pool advances it every few microseconds, while a
            // frozen counter with runnable work queued means the
            // "active" set is stuck and this sleeper is the rescue.
            let mut wait = IDLE_WAIT;
            let mut progress_mark = sched.total_progress();
            let mut frozen_rounds = 0u32;
            loop {
                if parker.park(wait) {
                    break;
                }
                idle_rounds = idle_rounds.saturating_add(1);
                if wait == IDLE_WAIT && sched.has_runnable() {
                    sched.idle_timeouts_with_work.fetch_add(1, Ordering::Relaxed);
                }
                if me.is_none() || sched.stopping.load(Ordering::Acquire) {
                    break;
                }
                let live = sched.live_workers.load(Ordering::Acquire);
                let blocked = sched.blocked_workers.load(Ordering::Acquire);
                let idle = sched.idle_count.0.load(Ordering::Acquire);
                let active = live.saturating_sub(blocked).saturating_sub(idle);
                if active < sched.cpu_quota || sched.lifo_any_stranded() {
                    break;
                }
                if !sched.has_runnable() {
                    break;
                }
                let progress = sched.total_progress();
                if progress == progress_mark {
                    // Runnable work, a full active set, and zero
                    // pickups for a whole wait: the actives look
                    // wedged. One frozen wait can also be the OS
                    // preempting a genuinely busy pool, so demand a
                    // second before rejoining — a real wedge holds, a
                    // preemption blip resumes ticking the counter.
                    frozen_rounds += 1;
                    if frozen_rounds >= 2 {
                        break;
                    }
                    continue;
                }
                progress_mark = progress;
                frozen_rounds = 0;
                // First timeout proved saturation; later rounds only
                // re-confirm it, so they can tick an order slower.
                wait = SATURATED_WAIT;
            }
        }
        sched.remove_sleeper(&parker);
        sched.idle_count.0.fetch_sub(1, Ordering::SeqCst);
        // A notify can land whenever the latch is on the list — ending the
        // park, or racing the re-check or a timeout — and its producer
        // counted a token: take it only now, off the list, and carry it
        // into the scan above. Taken earlier, a later notify would keep its
        // token through this worker's next task, blocking sections and all,
        // and gate every wake meanwhile. (One whose producer had already
        // popped the latch waits for the next park, or the exit tail.)
        holds_token = parker.take_notified();
    }
    if holds_token {
        sched.consume_wake_token();
    }
    // Exit tail: anything still queued on this worker must outlive it,
    // and a notify that raced our exit must return its wake token.
    if parker.take_notified() {
        sched.consume_wake_token();
    }
    if let Some(i) = me {
        sched.flush_lifo(i);
        while let Some(task) = sched.slots[i].deque.pop() {
            sched.push_inject(task);
        }
    }
    WORKER.with(|w| *w.borrow_mut() = None);
    sched.live_workers.fetch_sub(1, Ordering::AcqRel);
    sched.recheck_after_leaving();
}

/// The stall monitor. [`blocking`] compensates for every rendezvous the
/// kernel controls, but a behaviour may also block a worker on a
/// primitive the kernel cannot see — a bounded channel send to one of
/// its own worker processes, a bare sleep. This thread samples the
/// pickup counter: runnable tasks plus two ticks with no pickup means
/// every non-sleeping worker is stuck in such a rendezvous, so it wakes
/// a sleeper if one exists (the cheap rescue) and spawns a spare
/// otherwise (which retires itself once the pool is over target again).
/// The degenerate case — every resident Eject blocked at once —
/// converges to a thread per Eject. A stranded
/// LIFO-slot task counts as runnable here once stale, so a thief
/// arrives to steal it (second steal pass).
///
/// The monitor must NOT gate on `idle_count == 0`: sleepers in the
/// saturated re-park loop trust the `active` head-count, and when that
/// count lies (invisible rendezvous) the pool can sit at idle > 0 with
/// runnable work and nobody dispatching. The sleepers' own
/// frozen-progress check breaks that standoff within one park timeout;
/// the monitor's notify resolves it in ~2 ms instead.
fn monitor_main(sched: Arc<Scheduler>) {
    let mut last_progress = u64::MAX;
    let mut stalled_ticks = 0u32;
    let mut tick = MONITOR_TICK;
    while !sched.stopping.load(Ordering::Acquire) {
        // eden-lint: timer(stall-monitor)
        // eden-lint: nonblocking(dedicated monitor thread, never a pool worker)
        std::thread::sleep(tick);
        let progress = sched.total_progress();
        let runnable = sched.has_runnable();
        // An idle pool needs no 1 kHz heartbeat; back off until work shows.
        tick = if runnable { MONITOR_TICK } else { 5 * MONITOR_TICK };
        if runnable && progress == last_progress {
            stalled_ticks += 1;
            if stalled_ticks >= 2 && !sched.stopping.load(Ordering::Acquire) {
                sched.monitor_rescues.fetch_add(1, Ordering::Relaxed);
                if !sched.wake_sleeper()
                    && sched.live_workers.load(Ordering::Acquire) < MAX_WORKERS
                {
                    sched.spawn_worker();
                }
                stalled_ticks = 0;
            }
        } else {
            stalled_ticks = 0;
        }
        last_progress = progress;
    }
}
