//! The density plane: an N-worker scheduler for parked-mailbox Ejects.
//!
//! Thread-per-Eject prices an idle Eject at a kernel thread (stack pages,
//! a task struct, a scheduler slot) — a few thousand resident streams per
//! box. Here a coordinator is a *state machine*: an idle Eject is its
//! behaviour box parked on its mailbox's parking bit, costing no thread.
//! Delivery flips the bit (`PARKED -> QUEUED`, see [`crate::mailbox`]) and
//! lands the task on the run queue below; a worker resumes it, draining
//! its mailbox, and the bit hands the box from owner to owner with no
//! lock (`Task::body`).
//!
//! # One run queue
//!
//! A declared hop is a call on the caller's stack ([direct
//! handoff](#direct-handoff)), so the wakes left for the pool are spawns,
//! the sends nobody waits on at once, and the mail an inline resume leaves
//! behind. They all go to one FIFO queue, a mutex around a `VecDeque` with
//! a relaxed length hint that idle scans and the stall monitor read
//! without locking:
//!
//! ```text
//! send that wins PARKED -> QUEUED ──► call? ──yes──► resume on the caller's stack
//!                                       │no
//! spawn, requeue ───────────────────────┴──────────► run queue ──► any worker
//! ```
//!
//! An idle worker yields a few rounds, then announces itself on a sleeper
//! list and parks on its own mutex+condvar latch. A producer wakes at
//! most one sleeper, and only after a `SeqCst` fence arbitrates the
//! announce-vs-publish race, so a push can never slip between a
//! sleeper's last look and its sleep. A resume has no envelope budget: a
//! task whose mailbox of invocations never empties keeps its worker, and
//! the stall monitor's spare serves the queue behind it. But between two
//! internal events — steps of the Eject's own processes, each posting the
//! next — a task waiting in the run queue goes first.
//!
//! # Blocking compensation
//!
//! Eden behaviours are allowed to block mid-dispatch — a handler that
//! waits for the reply to its own call (a directory's nested lookup, a
//! local sink's end), a durable write for its group commit, a bounded
//! mailbox's sender for room. (A stream stage waits for nothing: its
//! handler parks its caller, its step polls every call, and a reply's
//! settle, a retry's pause and a deadline post it its next step, the last
//! two as arms on the kernel's [timer](crate::timer).) On
//! a cooperative pool those waits would eat workers and deadlock once the
//! pool is exhausted. Every such rendezvous
//! is therefore wrapped in [`blocking`]: a *worker* thread entering a
//! blocking section goes idle the way a sleeper does — it counts itself
//! blocked, and only then looks at the queue it leaves behind and decides
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
//! `EjectContext::begin_call`). If its push is the one that flips the callee
//! `PARKED -> QUEUED`, the mailbox hands it that wake back as a [`Woken`]
//! instead of enqueueing it, and [`Woken::run_as_call`] — the one election
//! point — resumes the task right there, nested on the caller's stack, until
//! the awaited reply settles: no queue, no sibling wake, no sleep, on
//! whatever thread the caller is. A lazy depth-4 pipeline crosses its
//! stages as five nested calls on the worker that runs its sink's step. What
//! the election declines it enqueues like any other wake. What a resume
//! leaves unsettled (a deferred reply), and a call that woke nobody (a
//! callee running or queued elsewhere), a thread waits for inside
//! [`blocking`], and a coordinator's step is posted when it settles.
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
//! through their context, and tasks and workers hold the scheduler, which
//! holds a task only while it is queued and drains its queue when stopped,
//! so a dropped kernel tears down through the normal shutdown path and
//! leaves no reference cycle behind.
//!
//! Nor does a hop write a line the pool shares: its counters — the calls
//! run inline and the pickups, which the stall monitor watches together,
//! and the parks and wakes whose difference is the parked gauge — are the
//! kernel's [`Metrics`] rows, each added to in the recording thread's own
//! block with a plain load and store and summed when a snapshot is taken,
//! and a reply cell a worker makes meters through that worker's own handle
//! on them, lent to a cell it keeps and reuses, not cloned
//! ([`local_metrics`]).

use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_core::span::SpanContext;
use eden_core::{Metrics, Uid};
use parking_lot::{Condvar, Mutex};

use crate::behavior::EjectBehavior;
use crate::context::EjectContext;
use crate::mailbox::spec::{self, Op};
use crate::mailbox::{park, MailboxCore};
use crate::runtime::{dispatch, Envelope};
use crate::timer::Timer;

/// Backstop timeout for a parked worker. The sleep protocol hands every
/// wake to a specific latch, but the timeout bounds the damage of any
/// residual race (and lets spares notice they are surplus).
const IDLE_WAIT: Duration = Duration::from_millis(10);

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
/// what hands the producer the core, and the worker finds the push
/// without a sleep and a wake. The one idle-path damper left (E32):
/// without it, a pinned durable pipeline ran 30 % slower and `invoke-open`
/// took 37 % longer to spawn its 100 000 Ejects.
const SPIN_ROUNDS: u32 = 3;

/// Most tasks one thread resumes nested inside one another: a worker's own
/// pickup plus the calls stacked on it (see [`Woken::run_as_call`]). A call
/// at the cap enqueues its callee and waits like any other, so a call chain
/// of any depth still completes — on more threads — and the stack a chain
/// can take from one thread is bounded.
const HANDOFF_DEPTH_CAP: usize = 16;

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
    /// park, and consumes it.
    fn park(&self, timeout: Duration) -> bool {
        let mut notified = self.park_mx.lock();
        if !*notified {
            // eden-lint: timer(sched-stride)
            // eden-lint: nonblocking(the pool's own idle wait — a sleeping worker has no task)
            let _ = self.park_cv.wait_for(&mut notified, timeout);
        }
        std::mem::take(&mut *notified)
    }

    // Worst-case caller: `maybe_wake` runs under the registry shard
    // (spawn path) or a mailbox ring (a backpressure park going blocked),
    // so the latch lock nests under both.
    // eden-lint: holds(registry-shard, mailbox-queue)
    fn notify(&self) {
        *self.park_mx.lock() = true;
        self.park_cv.notify_one();
    }
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
/// [`KernelSnapshot`](crate::KernelSnapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedSnapshot {
    /// Live scheduler tasks (every active Eject, parked or not).
    pub resident_ejects: u64,
    /// Tasks currently parked on their mailbox (no thread, no queue slot).
    pub parked_ejects: u64,
    /// Always 0: every worker takes from the one run queue, so no task is
    /// ever stolen. Kept because the benchmark reads it.
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
    /// The run queue's length hint (a relaxed read), exact at rest.
    pub(crate) queued_tasks: u64,
    /// Stalls the monitor broke (runnable work, no pickup for two ticks): a
    /// wake owed and not sent, or a worker stuck where the kernel cannot see.
    pub monitor_rescues: u64,
    /// Idle-wait (10 ms) expiries that found runnable work — the other backstop;
    /// also counts a sleeper surfacing while the active workers are busy.
    pub idle_timeouts_with_work: u64,
    /// Spare workers spawned, by blocking compensation or the monitor.
    pub spares_spawned: u64,
}

/// The coordinator state of one Eject: its behaviour box,
/// mailbox, and identity. Kept alive by the registry slot; the run
/// queue holds it only while it is `QUEUED`.
pub(crate) struct Task {
    /// The pool that runs it: what a wake won by a push is spent on, so the
    /// winner counts nothing more than the task it upgraded.
    sched: Arc<Scheduler>,
    core: Arc<MailboxCore>,
    ctx: Arc<EjectContext>,
    incarnation: u64,
    /// What the behaviour said of itself before it was boxed into `body`
    /// ([`EjectBehavior::replies_last`]): the whole of
    /// [`Woken::run_as_call`]'s test of a callee.
    replies_last: bool,
    /// The behaviour and resume bookkeeping, owned without a lock by whoever
    /// holds the park bit in RUNNING (see `unsafe impl Sync for Task`).
    body: UnsafeCell<Option<TaskBody>>,
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
        // SAFETY: the caller holds the park bit in RUNNING (see `impl Sync`).
        unsafe { (*self.slot()).take() }
    }

    fn put_body(&self, body: TaskBody) {
        // SAFETY: as in `take_body`, before the Release that hands it on.
        unsafe { *self.slot() = Some(body) };
    }

    fn slot(&self) -> *mut Option<TaskBody> {
        debug_assert!(matches!(
            self.core.park_bit().load(Ordering::Relaxed),
            park::RUNNING | park::DIRTY
        ));
        self.body.get()
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

// SAFETY: `body`, the one field that is not `Sync`, has one accessor: the
// thread that stored the park bit `QUEUED -> RUNNING`. It passes on only by
// a park-bit Release made after the put: the `RUNNING -> PARKED` CAS, which
// the waking sender's AcqRel `PARKED -> QUEUED` CAS acquires, or the `->
// QUEUED` store of a spawn or requeue, which the worker that pops the task
// acquires through the run-queue mutex. Other senders only mark it DIRTY.
unsafe impl Sync for Task {}

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
    /// The task exited: whether it crashed, and whether it drives itself
    /// ([`EjectBehavior::drives_itself`]) and is reactivated at once.
    Dead(bool, bool),
}

/// Thread-local identity of a worker: which scheduler it serves, its own
/// handle on the kernel's counters, and the blocking-section depth (only
/// the outermost section counts the worker as lost).
struct WorkerTls {
    sched: Arc<Scheduler>,
    metrics: Arc<Metrics>,
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

/// Lend `f` the calling thread's own handle on `sched`'s counters, if it is
/// one of its workers: what a reply cell made here meters through, so no
/// count is taken on it but for a new cell, and that on a line of its own.
pub(crate) fn local_metrics<R>(
    sched: &Arc<Scheduler>,
    f: impl FnOnce(Option<&Arc<Metrics>>) -> R,
) -> R {
    WORKER.with(|tls| {
        let tls = tls.borrow();
        let worker = tls.as_ref().filter(|w| Arc::ptr_eq(&w.sched, sched));
        f(worker.map(|worker| &worker.metrics))
    })
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
/// and says so the way `Scheduler::note_block_enter` describes.
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
                (worker.block_depth == 1).then(|| Arc::clone(&worker.sched))
            }
            None => None,
        }
    });
    if let Some(sched) = &outermost {
        sched.note_block_enter();
    }
    let out = f();
    if let Some(sched) = &outermost {
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
/// this sender must. A plain send [`enqueue`](Woken::enqueue)s it at once;
/// a call gets it back from the mailbox and spends it in
/// [`run_as_call`](Woken::run_as_call).
#[must_use = "dropping a wake strands its task"]
pub(crate) struct Woken {
    pub(crate) task: Arc<Task>,
}

impl Woken {
    /// Spend the wake as a plain send does: on the run queue.
    pub(crate) fn enqueue(self) {
        let sched = &self.task.sched;
        sched.note_wake(&self.task);
        sched.push(Arc::clone(&self.task));
    }

    /// Caller-runs-callee, and the only place it is decided: resume the
    /// task on the calling thread's stack, so that a send followed by a wait
    /// costs a call instead of two thread hand-offs (queue, wake a sleeper,
    /// sleep, be woken). `settled` is the caller's probe of the reply it is
    /// about to wait for; the inline resume ends once it reads true.
    ///
    /// The election reads only what the call looks like from here, and
    /// whose thread this is — a pool worker's or a user's
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
        let (task, sched) = (&self.task, &self.task.sched);
        let blocked = WORKER.with(|w| {
            w.borrow()
                .as_ref()
                .is_some_and(|worker| worker.block_depth > 0)
        });
        if !task.replies_last || blocked || resuming_depth() >= HANDOFF_DEPTH_CAP {
            return self.enqueue();
        }
        // The run-queue wait this stamps the start of is over at once.
        sched.note_wake(task);
        sched.metrics.record_inline_handoff();
        sched.run_task(task, Some(settled));
    }
}

/// The worker pool and its run queue. One per kernel, shared with every
/// worker thread.
pub(crate) struct Scheduler {
    /// The one run queue: every wake the inline call path does not take,
    /// in the order it was made.
    runq: Mutex<VecDeque<Arc<Task>>>,
    /// Relaxed mirror of `runq`'s length, so idle scans and the stall
    /// monitor look without locking.
    queued: AtomicUsize,
    target_workers: usize,
    epoch: Instant,
    /// Whether an observability plane is installed to read the run-queue
    /// stamps. Without one nothing consumes them, and no dispatch — an
    /// inline call least of all — reads the clock for them.
    stamps: bool,
    /// Workers inside the sleep protocol (announced on `sleepers`, about
    /// to park or parked). The producer side of the Dekker handshake in
    /// [`Scheduler::maybe_wake`].
    idle_count: AtomicUsize,
    /// The host's available parallelism, sampled once at pool build.
    /// Producers stop waking sleepers once this many workers are awake
    /// and unblocked: extra runnable threads beyond the core count add
    /// context switches, never throughput — the single rule that makes
    /// oversized pools free instead of regressive on small machines.
    cpu_quota: usize,
    /// Latches of workers currently inside the sleep protocol. Producers
    /// pop one to wake; a sleeper that finds work (or times out) removes
    /// itself.
    sleepers: Mutex<Vec<Arc<Parker>>>,
    live_workers: AtomicUsize,
    blocked_workers: AtomicUsize,
    tasks_alive: AtomicU64,
    /// The kernel's counters: the per-hop ones (inline calls, parks, wakes,
    /// pickups) are recorded here, in the recording thread's own block.
    metrics: Metrics,
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
    /// The kernel's one timer, waited on by the stall monitor's thread.
    pub(crate) timer: Arc<Timer>,
}

impl Scheduler {
    /// `stamps`: whether anything will read the run-queue wait (the kernel
    /// builder knows: it installs the observability plane or does not).
    pub(crate) fn new(config: SchedulerConfig, stamps: bool, metrics: Metrics) -> Arc<Scheduler> {
        let workers = config.workers.max(1);
        let sched = Arc::new(Scheduler {
            runq: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            target_workers: workers,
            epoch: Instant::now(),
            stamps,
            idle_count: AtomicUsize::new(0),
            cpu_quota: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(workers),
            sleepers: Mutex::new(Vec::new()),
            live_workers: AtomicUsize::new(0),
            blocked_workers: AtomicUsize::new(0),
            tasks_alive: AtomicU64::new(0),
            metrics,
            monitor_rescues: AtomicU64::new(0),
            idle_timeouts_with_work: AtomicU64::new(0),
            spares_spawned: AtomicU64::new(0),
            worker_seq: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
            death_mx: Mutex::new(()),
            death_cv: Condvar::default(),
            threads: Mutex::new(Vec::new()),
            timer: Arc::default(),
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
        let counts = self.metrics.snapshot();
        SchedSnapshot {
            resident_ejects: self.tasks_alive.load(Ordering::Relaxed),
            // A wake the fold reads before the park it undoes can make the
            // difference dip below zero for a moment; at rest it is exact.
            parked_ejects: counts.parks.saturating_sub(counts.wakes),
            sched_steals: 0,
            inline_handoffs: counts.inline_handoffs,
            workers: self.live_workers.load(Ordering::Relaxed) as u64,
            workers_blocked: self.blocked_workers.load(Ordering::Relaxed) as u64,
            workers_idle: self.idle_count.load(Ordering::Relaxed) as u64,
            queued_tasks: self.queued.load(Ordering::Relaxed) as u64,
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
            sched: Arc::clone(self),
            core: Arc::clone(&core),
            ctx,
            incarnation,
            replies_last,
            body: UnsafeCell::new(Some(TaskBody {
                behavior,
                activated: false,
                ambient,
            })),
            rq_enq_ns: AtomicU64::new(0),
            died: Mutex::new(false),
            died_cv: Condvar::default(),
        });
        core.attach_task(&task);
        self.tasks_alive.fetch_add(1, Ordering::Relaxed);
        // A fresh task's bit is PARKED and nobody else can see it yet, so
        // a plain store (not a CAS) is enough for the spawn enqueue.
        transition(core.park_bit(), Op::Store, &[park::PARKED], park::QUEUED);
        self.stamp_enqueue(&task);
        self.push(Arc::clone(&task));
        task
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
        self.metrics.record_wake();
        self.stamp_enqueue(task);
    }

    /// Append a stamped `QUEUED` task to the run queue and see that
    /// somebody will run it.
    // Worst-case caller: the spawn path runs under the registry shard
    // being written.
    // eden-lint: holds(registry-shard)
    fn push(&self, task: Arc<Task>) {
        {
            let mut runq = self.runq.lock();
            runq.push_back(task);
            self.queued.store(runq.len(), Ordering::Release);
        }
        self.maybe_wake();
    }

    /// The oldest queued task, if any.
    fn pop(&self) -> Option<Arc<Task>> {
        if self.queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut runq = self.runq.lock();
        let task = runq.pop_front();
        self.queued.store(runq.len(), Ordering::Release);
        task
    }

    /// The wake discipline's one invariant: *whenever a task is runnable and
    /// no worker is active (awake, unblocked, not idle), a wake is in flight
    /// or a worker is being spawned.* A producer keeps it here, after its
    /// push. A worker keeps it wherever it stops being active — going to
    /// sleep ([`worker_main`]), entering a blocking section
    /// ([`note_block_enter`](Scheduler::note_block_enter)), retiring — by the
    /// same steps in the same order: say so (announce idle, count itself
    /// blocked, leave `live`), `SeqCst` fence, then look at the queue.
    /// Whichever fence is later in the total order sees the other side's
    /// write: the producer finds the worker gone from `active` and wakes a
    /// sleeper, or the leaving worker finds the push. So no push falls into a
    /// look-then-leave gap, and a leaving worker is never the "active" one
    /// its own push was left to.
    ///
    /// Two gates dampen wake storms. No sleeper announced: nobody to wake,
    /// and `note_block_enter` sees to it that somebody is active then.
    /// `cpu_quota` workers already active: a wake buys contention, not
    /// capacity, for every active worker takes from the same queue.
    /// `active` errs towards extra wakes — a worker re-checking inside the
    /// sleep protocol, or woken and not yet off the list, still counts idle
    /// — never missed ones.
    fn maybe_wake(&self) {
        // eden-lint: ordering(dekker-store-load)
        fence(Ordering::SeqCst);
        let idle = self.idle_count.load(Ordering::Relaxed);
        if idle == 0 {
            return;
        }
        let live = self.live_workers.load(Ordering::Relaxed);
        let blocked = self.blocked_workers.load(Ordering::Relaxed);
        let active = live.saturating_sub(blocked).saturating_sub(idle);
        if active < self.cpu_quota {
            self.wake_sleeper();
        }
    }

    /// Notify one registered sleeper, if there is one.
    fn wake_sleeper(&self) -> bool {
        let sleeper = self.pop_sleeper();
        if let Some(parker) = &sleeper {
            parker.notify();
        }
        sleeper.is_some()
    }

    // Worst-case caller: `maybe_wake` under the registry shard (spawn
    // path) or a mailbox ring (a backpressure park going blocked).
    // eden-lint: holds(registry-shard, mailbox-queue)
    fn pop_sleeper(&self) -> Option<Arc<Parker>> {
        self.sleepers.lock().pop()
    }

    fn remove_sleeper(&self, parker: &Arc<Parker>) {
        self.sleepers.lock().retain(|p| !Arc::ptr_eq(p, parker));
    }

    /// The idle re-check and the stall monitor's "is there work" probe.
    fn has_runnable(&self) -> bool {
        self.queued.load(Ordering::Relaxed) > 0
    }

    fn spawn_worker(self: &Arc<Scheduler>) {
        let idx = self.worker_seq.fetch_add(1, Ordering::Relaxed);
        if idx >= self.target_workers {
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
                // remaining workers still drain the queue.
                self.live_workers.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// The calling worker stops dispatching for a blocking section, in the
    /// sleeper's order (see [`maybe_wake`](Scheduler::maybe_wake)): it holds
    /// no task of its own to hand over, so it counts itself blocked, and
    /// only then — one decision, here — looks at the queue it leaves behind.
    ///
    /// *Capacity*: fewer than `target_workers` are left able to run. A
    /// registered sleeper stands in at futex cost and needs no wake until
    /// there is work; with none, spawn a spare, which starts active and looks
    /// at the queue. This head-count is what spares a producer, who may hold
    /// a registry or mailbox lock, from ever spawning: an unblocked worker
    /// always exists, so "no sleeper" means "somebody active". *Work*:
    /// otherwise a queued task — a push that counted this worker active,
    /// its own included — gets a producer's `maybe_wake`, now that the
    /// leaver is out of the `active` count.
    fn note_block_enter(self: &Arc<Scheduler>) {
        let blocked = self.blocked_workers.fetch_add(1, Ordering::AcqRel) + 1;
        if self.stopping.load(Ordering::Acquire) {
            return;
        }
        let able = self
            .live_workers
            .load(Ordering::Acquire)
            .saturating_sub(blocked);
        if able < self.target_workers && self.idle_count.load(Ordering::Acquire) == 0 {
            self.spawn_worker();
        } else {
            self.recheck_after_leaving();
        }
    }

    /// The calling worker has just left `active` (blocked, or retired): look
    /// at the queue as a sleeper does once announced, and be the producer of
    /// any task it holds.
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

    /// Resume one task: drain its mailbox, then park; run the death path if
    /// an exit envelope (or a panic in the behaviour) ends it. An inline
    /// resume (see [`Woken::run_as_call`]) passes the caller's `settled`
    /// probe and ends as soon as it reads true, requeueing any mail left.
    fn run_task(&self, task: &Arc<Task>, settled: Option<&dyn Fn() -> bool>) {
        transition(
            task.core.park_bit(),
            Op::Store,
            &[park::QUEUED],
            park::RUNNING,
        );
        RESUMING.with(|frames| {
            frames.borrow_mut().push(Frame {
                uid: task.uid(),
                serving: 0,
                replied: false,
            })
        });
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.resume(task, settled)));
        RESUMING.with(|frames| frames.borrow_mut().pop());
        match outcome {
            Ok(Resume::Yield) => {}
            Ok(Resume::Dead(crashed, restart)) => self.reap(task, crashed, restart),
            Err(_) => {
                // The behaviour panicked mid-dispatch. Thread-per-Eject
                // lost the coordinator thread here; the pool must survive
                // instead, so the task dies as a crash and the worker
                // lives on. The behaviour box was dropped by the unwind,
                // releasing any parked replies.
                task.ctx.begin_stop();
                self.reap(task, true, false);
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
        // The last pop emptied the ring. Whatever lands after it finds the
        // task RUNNING and marks it DIRTY, which fails the park below, so
        // the ring need not be looked at again to park.
        let mut drained = false;
        loop {
            if task.ctx.deactivate_requested() {
                return self.die(task, body, false);
            }
            let popped = if std::mem::take(&mut drained) {
                None
            } else {
                task.core.pop(&mut drained)
            };
            match popped {
                Some(envelope) if settled.is_some_and(|settled| settled()) => {
                    // An inline resume is over once the caller has its
                    // reply. With the mailbox empty that is the ordinary
                    // park below; mail from other senders goes back and
                    // waits its turn in the run queue.
                    task.core.unpop(envelope);
                    return self.requeue(task, body);
                }
                Some(Envelope::Invocation(inv, mut reply)) => {
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
                    body.behavior.internal(&task.ctx, event);
                    // A step that posts the next keeps its mailbox from
                    // emptying: between steps, a waiting task goes first.
                    if settled.is_none() && self.has_runnable() {
                        return self.requeue(task, body);
                    }
                }
                Some(Envelope::Crash) => return self.die(task, body, true),
                Some(Envelope::Shutdown) => return self.die(task, body, false),
                None => {
                    // Put the body back BEFORE the CAS advertises PARKED:
                    // the CAS is the Release that hands it on, and the
                    // instant it succeeds another thread may resume the
                    // task. The park is counted after it, as only a won CAS
                    // is one; the wake may be counted first.
                    task.put_body(body);
                    if transition(bit, Op::Cas, &[park::RUNNING], park::PARKED) {
                        self.metrics.record_park();
                        return Resume::Yield;
                    }
                    // A sender marked us dirty between the empty pop and
                    // the park attempt; reclaim the body and keep draining.
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

    /// End a resume with mail still queued: body back, then to the back of the run queue.
    fn requeue(&self, task: &Arc<Task>, body: TaskBody) -> Resume {
        task.put_body(body);
        transition(
            task.core.park_bit(),
            Op::Store,
            &[park::RUNNING, park::DIRTY],
            park::QUEUED,
        );
        self.stamp_enqueue(task);
        self.push(Arc::clone(task));
        Resume::Yield
    }

    /// The in-resume half of the death path: mirror of the coordinator
    /// thread's exit tail, up to dropping the behaviour.
    fn die(&self, task: &Arc<Task>, body: TaskBody, crashed: bool) -> Resume {
        let TaskBody { mut behavior, .. } = body;
        let restart = crashed && behavior.drives_itself();
        behavior.deactivating(&task.ctx);
        task.ctx.begin_stop();
        // Dropping the behaviour releases any parked ReplyHandles,
        // unblocking whoever waits on this Eject.
        drop(behavior);
        Resume::Dead(crashed, restart)
    }

    /// The post-behaviour half of the death path: close the mailbox (so
    /// queued invocations fail fast and later sends bounce), reap worker
    /// processes, and tell the kernel.
    fn reap(&self, task: &Arc<Task>, crashed: bool, restart: bool) {
        transition(
            task.core.park_bit(),
            Op::Store,
            &[park::RUNNING, park::DIRTY],
            park::DEAD,
        );
        drop(task.core.close());
        task.ctx.join_workers();
        task.ctx
            .kernel
            .on_eject_exit(task.uid(), task.incarnation, crashed, restart);
        task.mark_died();
        // As in `Task::mark_died`: the count falls under the waiter's lock.
        let _death = self.death_mx.lock();
        self.tasks_alive.fetch_sub(1, Ordering::Relaxed);
        self.death_cv.notify_all();
    }

    /// Block until every task has died, excluding (when called from a
    /// worker mid-resume) the tasks this thread is currently running —
    /// which cannot die before this call returns.
    pub(crate) fn wait_all_dead(&self) {
        let allow = resuming_depth() as u64;
        blocking(|| {
            let mut death = self.death_mx.lock();
            while self.tasks_alive.load(Ordering::Relaxed) > allow {
                self.death_cv.wait(&mut death);
            }
        });
    }

    /// Stop the pool: workers drain what is queued, then exit. Idempotent.
    /// Never joins the calling thread (shutdown can originate on a
    /// worker).
    pub(crate) fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        self.timer.stop();
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
            .field("snapshot", &self.snapshot())
            .finish_non_exhaustive()
    }
}

fn worker_main(sched: Arc<Scheduler>, idx: usize) {
    // The first `target_workers` spawns are the pool; later spawns are
    // spares (blocking compensation, stall rescue), which may retire.
    let spare = idx >= sched.target_workers;
    let parker = Arc::new(Parker::new());
    WORKER.with(|w| {
        *w.borrow_mut() = Some(WorkerTls {
            sched: Arc::clone(&sched),
            metrics: Arc::new(sched.metrics.clone()),
            block_depth: 0,
        })
    });
    let mut spins = 0u32;
    loop {
        if let Some(task) = sched.pop() {
            spins = 0;
            sched.metrics.record_pickup();
            sched.run_task(&task, None);
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
        // A spare retires at the first empty look that finds the pool over
        // target. The check races other retirees at worst into a transient
        // under-target, which the next blocking section corrects. The
        // pool's own workers never retire.
        let live = sched.live_workers.load(Ordering::Acquire);
        let blocked = sched.blocked_workers.load(Ordering::Acquire);
        if spare && live.saturating_sub(blocked) > sched.target_workers {
            break;
        }
        // Sleep protocol: register the latch, announce, then re-check.
        // The registration must precede the announce so a producer that
        // observes `idle_count > 0` finds a latch to pop; the fence
        // pairs with `maybe_wake`'s (see there).
        sched.sleepers.lock().push(Arc::clone(&parker));
        sched.idle_count.fetch_add(1, Ordering::SeqCst);
        // eden-lint: ordering(dekker-store-load)
        fence(Ordering::SeqCst);
        if !sched.has_runnable() && !sched.stopping.load(Ordering::Acquire) {
            // The timeout is a backstop for what no notify reports (see
            // `monitor_main`); count the ones that found work waiting.
            if !parker.park(IDLE_WAIT) && sched.has_runnable() {
                sched
                    .idle_timeouts_with_work
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        sched.remove_sleeper(&parker);
        sched.idle_count.fetch_sub(1, Ordering::SeqCst);
    }
    WORKER.with(|w| *w.borrow_mut() = None);
    sched.live_workers.fetch_sub(1, Ordering::AcqRel);
    sched.recheck_after_leaving();
}

/// The stall monitor. [`blocking`] compensates for every rendezvous the
/// kernel controls, but a behaviour may also block a worker on a
/// primitive the kernel cannot see — a bounded channel send to one of
/// its own process threads, a bare sleep. This thread samples progress,
/// pickups and inline calls alike ([`Metrics::progress`]): runnable tasks
/// plus two ticks with neither means every non-sleeping worker is stuck
/// in such a rendezvous, so it wakes
/// a sleeper if one exists (the cheap rescue) and spawns a spare
/// otherwise (which retires itself once the pool is over target again).
/// The degenerate case — every resident Eject blocked at once —
/// converges to a thread per Eject.
///
/// The monitor must NOT gate on `idle_count == 0`: producers trust the
/// `active` head-count, and when that count lies (invisible rendezvous)
/// the pool can sit at idle > 0 with runnable work and nobody
/// dispatching. A sleeper's own timeout breaks that standoff within
/// [`IDLE_WAIT`]; the monitor's notify resolves it in ~2 ms instead.
///
/// Between ticks it waits on the kernel's [`Timer`], posting each arm as it
/// falls due: the tick is the timer's periodic arm.
fn monitor_main(sched: Arc<Scheduler>) {
    let mut last_progress = u64::MAX;
    let mut stalled_ticks = 0u32;
    let mut tick = MONITOR_TICK;
    while sched.timer.wait_until(Instant::now() + tick) {
        let progress = sched.metrics.progress();
        let runnable = sched.has_runnable();
        // An idle pool needs no 1 kHz heartbeat; back off until work shows.
        tick = if runnable {
            MONITOR_TICK
        } else {
            5 * MONITOR_TICK
        };
        if runnable && progress == last_progress {
            stalled_ticks += 1;
            if stalled_ticks >= 2 && !sched.stopping.load(Ordering::Acquire) {
                sched.monitor_rescues.fetch_add(1, Ordering::Relaxed);
                if !sched.wake_sleeper() && sched.live_workers.load(Ordering::Acquire) < MAX_WORKERS
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
