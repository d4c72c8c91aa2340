//! The density plane's behaviour contract: the N-worker parked-mailbox
//! scheduler must be invisible to correctness. Ten thousand Ejects on a
//! two-worker pool see every invocation exactly once; a parked idle
//! population stays responsive while a pipeline hammers the same pool;
//! and every discipline's pipeline output is byte-identical to its
//! transforms applied in-process, so a scheduler bug has nowhere to hide.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden::core::op::ops;
use eden::core::{Uid, Value};
use eden::filters;
use eden::fs::{register_fs_types, FileEject};
use eden::kernel::{
    EjectBehavior, EjectContext, FsyncPolicy, Invocation, InvokeOptions, Kernel, PendingReply,
    ReplyHandle, RetryPolicy, SchedulerConfig,
};
use eden::transput::protocol::{Batch, TransferRequest, WriteRequest};
use eden::transput::recovery::{install_recovery, TransformRegistry};
use eden::transput::source::FnSource;
use eden::transput::transform::{apply_chain_offline, Transform};
use eden::transput::{ChannelPolicy, Discipline, Input, Output, PipelineSpec, Stage, StageConfig};

/// A deliberately starved pool: every test here runs its whole cast on
/// two workers, so any lost wakeup or unfair queue shows up as a hang
/// or a wrong count rather than hiding behind spare threads.
fn two_worker_kernel() -> Kernel {
    Kernel::builder()
        .scheduler(SchedulerConfig { workers: 2 })
        .build()
}

struct Accumulator {
    total: i64,
}

impl EjectBehavior for Accumulator {
    fn type_name(&self) -> &'static str {
        "Accumulator"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Add" => {
                self.total += inv.arg.as_int().unwrap_or(0);
                reply.reply(Ok(Value::Int(self.total)));
            }
            "Total" => reply.reply(Ok(Value::Int(self.total))),
            _ => reply.reply(Err(eden_core::EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op.clone(),
            })),
        }
    }
}

/// 10k resident Ejects multiplexed onto two workers: three full rounds
/// of increments land exactly once each, and crashing a slice of the
/// population leaves the survivors' counts untouched.
#[test]
fn ten_thousand_ejects_on_two_workers_see_each_invocation_once() {
    const EJECTS: usize = 10_000;
    const ROUNDS: i64 = 3;
    let kernel = two_worker_kernel();
    let uids: Vec<Uid> = (0..EJECTS)
        .map(|_| {
            kernel
                .spawn(Box::new(Accumulator { total: 0 }))
                .expect("spawn accumulator")
        })
        .collect();
    for round in 1..=ROUNDS {
        let pending: Vec<_> = uids
            .iter()
            .map(|&uid| kernel.invoke(uid, "Add", Value::Int(1)))
            .collect();
        for reply in pending {
            assert_eq!(
                reply.wait(),
                Ok(Value::Int(round)),
                "double or lost delivery"
            );
        }
    }
    // Crash a slice; exactly-once for the survivors must be unaffected.
    for &uid in uids.iter().step_by(97) {
        kernel.crash(uid).expect("crash");
    }
    for (i, &uid) in uids.iter().enumerate() {
        if i % 97 != 0 {
            assert_eq!(
                kernel.invoke(uid, "Total", Value::Unit).wait(),
                Ok(Value::Int(ROUNDS)),
                "survivor count drifted after neighbours crashed"
            );
        }
    }
    kernel.shutdown();
}

/// Fans invocations out to a fixed cast from *worker context*, so every
/// wake is pushed by the one worker running it. `Blast(round)` increments the whole
/// cast and replies with how many replies came back equal to `round` —
/// i.e. how many targets have seen exactly `round` increments.
struct Fanout {
    targets: Vec<Uid>,
}

impl EjectBehavior for Fanout {
    fn type_name(&self) -> &'static str {
        "Fanout"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Blast" => {
                let round = inv.arg.as_int().unwrap_or(0);
                let pending: Vec<_> = self
                    .targets
                    .iter()
                    .map(|&uid| ctx.invoke(uid, "Add", Value::Int(1)))
                    .collect();
                let mut exact = 0i64;
                for p in pending {
                    if p.wait() == Ok(Value::Int(round)) {
                        exact += 1;
                    }
                }
                reply.reply(Ok(Value::Int(exact)));
            }
            _ => reply.reply(Err(eden_core::EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op.clone(),
            })),
        }
    }
}

/// One producing worker: the fanout pushes all 10k wakes from worker
/// context while the other three workers take them off the run queue.
/// Every increment must still land exactly once.
#[test]
fn one_producing_worker_delivers_ten_thousand_wakes_exactly_once() {
    const EJECTS: usize = 10_000;
    const ROUNDS: i64 = 2;
    let kernel = Kernel::builder()
        .scheduler(SchedulerConfig { workers: 4 })
        .build();
    let targets: Vec<Uid> = (0..EJECTS)
        .map(|_| {
            kernel
                .spawn(Box::new(Accumulator { total: 0 }))
                .expect("spawn accumulator")
        })
        .collect();
    let fanout = kernel
        .spawn(Box::new(Fanout { targets }))
        .expect("spawn fanout");

    for round in 1..=ROUNDS {
        assert_eq!(
            kernel.invoke(fanout, "Blast", Value::Int(round)).wait(),
            Ok(Value::Int(EJECTS as i64)),
            "round {round}: some target saw a lost or doubled increment"
        );
    }
    kernel.shutdown();
}

fn transfer(kernel: &Kernel, target: Uid, max: usize, pos: u64) -> Batch {
    let req = TransferRequest::primary(max).at(pos);
    Batch::from_value(
        kernel
            .invoke(target, ops::TRANSFER, req.to_value())
            .wait()
            .expect("transfer"),
    )
    .expect("batch")
}

/// Crash/recovery on the starved pool: a durable cursor crashed
/// mid-stream reactivates at its checkpoint — each record delivered
/// exactly once, none replayed, none skipped.
#[test]
fn crash_recovery_on_two_worker_pool_is_exactly_once() {
    let kernel = two_worker_kernel();
    register_fs_types(&kernel);
    install_recovery(&kernel, &TransformRegistry::default());
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(
            (0..6).map(|i| format!("record {i}")),
        )))
        .expect("file");
    let cursor = kernel
        .invoke(file, "OpenDurable", Value::Unit)
        .wait()
        .expect("open durable")
        .as_uid()
        .expect("cursor uid");
    let first = transfer(&kernel, cursor, 2, 0);
    assert_eq!(first.items.len(), 2);
    kernel.crash(cursor).expect("crash cursor");
    let next = transfer(&kernel, cursor, 1, 2);
    assert_eq!(next.items[0].as_str().unwrap(), "record 2");
    kernel.shutdown();
}

/// Fairness: a hot depth-4 pipeline saturating the pool must not starve
/// a parked population, so idle streams' tail latency stays bounded
/// instead of waiting for the pipeline to finish. Parameterised over the
/// pool size: one worker is the worst case for monopolisation, eight
/// puts more workers than CPUs on the one queue.
fn idle_p99_bounded_under_hot_pipeline(workers: usize) {
    const IDLE: usize = 1_000;
    let kernel = Kernel::builder()
        .scheduler(SchedulerConfig { workers })
        .build();
    let idle: Vec<Uid> = (0..IDLE)
        .map(|_| {
            kernel
                .spawn(Box::new(Accumulator { total: 0 }))
                .expect("spawn idle stream")
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let hot = {
        let kernel = kernel.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let mut builder = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 8 })
                    .source_vec((0..2_000).map(Value::Int).collect())
                    .batch(8)
                    .policy(ChannelPolicy::Integer);
                for _ in 0..4 {
                    builder = builder.stage(Box::new(eden::transput::transform::Identity));
                }
                let run = builder
                    .build(&kernel)
                    .expect("hot pipeline builds")
                    .run(Duration::from_secs(60))
                    .expect("hot pipeline completes");
                assert_eq!(run.records_out, 2_000);
            }
        })
    };

    let mut latencies: Vec<Duration> = Vec::with_capacity(IDLE);
    for &uid in &idle {
        let t0 = Instant::now();
        assert_eq!(
            kernel.invoke(uid, "Total", Value::Unit).wait(),
            Ok(Value::Int(0)),
            "idle stream starved out entirely"
        );
        latencies.push(t0.elapsed());
    }
    stop.store(true, Ordering::Release);
    hot.join().expect("hot pipeline thread");

    latencies.sort();
    let p99 = latencies[IDLE * 99 / 100 - 1];
    // Generous for a loaded single-core CI box; the failure mode being
    // excluded is "idle p99 ≈ the hot pipeline's whole runtime".
    assert!(
        p99 < Duration::from_secs(2),
        "idle stream p99 {p99:?} unbounded under hot pipeline ({workers} workers)"
    );
    kernel.shutdown();
}

#[test]
fn idle_streams_stay_responsive_under_hot_pipeline_one_worker() {
    idle_p99_bounded_under_hot_pipeline(1);
}

#[test]
fn idle_streams_stay_responsive_under_hot_pipeline_two_workers() {
    idle_p99_bounded_under_hot_pipeline(2);
}

#[test]
fn idle_streams_stay_responsive_under_hot_pipeline_eight_workers() {
    idle_p99_bounded_under_hot_pipeline(8);
}

fn pipeline_input() -> Vec<Value> {
    (0..200).map(|i| Value::str(format!("line {i}"))).collect()
}

fn pipeline_stages() -> [Box<dyn Transform>; 2] {
    [
        Box::new(filters::CaseFold::upper()),
        Box::new(filters::LineNumber::new()),
    ]
}

fn pipeline_output(kernel: &Kernel, discipline: Discipline) -> Vec<Value> {
    let mut builder = PipelineSpec::new(discipline)
        .source_vec(pipeline_input())
        .batch(4)
        .policy(ChannelPolicy::Integer);
    for stage in pipeline_stages() {
        builder = builder.stage(stage);
    }
    builder
        .build(kernel)
        .expect("pipeline builds")
        .run(Duration::from_secs(60))
        .expect("pipeline completes")
        .output
}

/// Differential arbitration: across all three disciplines the scheduler
/// produces, byte for byte, the primary stream the two transforms make of
/// the same input with no kernel in between.
#[test]
fn every_discipline_on_the_scheduler_matches_the_transforms_applied_in_process() {
    let reference = apply_chain_offline(&mut pipeline_stages(), pipeline_input());
    for discipline in [
        Discipline::ReadOnly { read_ahead: 8 },
        Discipline::WriteOnly { push_ahead: 8 },
        Discipline::Conventional {
            buffer_capacity: 16,
        },
    ] {
        let sched_kernel = two_worker_kernel();
        let sched_out = pipeline_output(&sched_kernel, discipline);
        sched_kernel.shutdown();

        assert_eq!(
            reference, sched_out,
            "{discipline:?}: scheduler output diverged from the transforms"
        );
        assert_eq!(
            format!("{reference:?}"),
            format!("{sched_out:?}"),
            "{discipline:?}: rendered bytes diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Caller-runs-callee handoff: a sender that `call`s — sends and waits in
// one act — and whose send is what wakes the callee from its park resumes
// it on its own stack, whatever thread that is, if the callee's behaviour
// declares `replies_last`, so that the call returns when a wait would have.
// Everything the election declines it enqueues, and everything a resume
// leaves unsettled takes the blocking wait it always took.

fn one_worker_kernel() -> Kernel {
    Kernel::builder()
        .scheduler(SchedulerConfig { workers: 1 })
        .build()
}

/// Repeat `run` until it reports that its calls ran inline.
///
/// A call runs its callee only if its own send is what wakes it, so the
/// callee has to be parked when the send arrives — and a fresh Eject is
/// queued, not parked, until its first resume (its `activate`) is over. On
/// an oversubscribed host (this binary's 10k-Eject tests run beside these)
/// that resume can be late: the one worker is descheduled, the stall monitor
/// adds a spare after 2 ms, and the spare runs the caller before the worker
/// has parked the callee. Such a run is correct, and `run` asserts that
/// itself every time; it just says nothing about the inline path, so it is
/// repeated.
fn until_undisturbed(what: &str, mut run: impl FnMut() -> bool) {
    const ATTEMPTS: usize = 50;
    for _ in 0..ATTEMPTS {
        if run() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("{what}: something disturbed each of {ATTEMPTS} runs");
}

/// Wait until every resident Eject is parked: a callee has to be, for a call
/// to be what wakes it, and a caller that is still queued for its own first
/// resume would find its invocation — and make its call — before its callee's
/// turn to be activated had come. (The gauge is parks less wakes, summed shard
/// by shard, and a fold can read a park without the wake that undid it;
/// `until_undisturbed` repeats the run that falls in between.)
fn all_parked(kernel: &Kernel) {
    loop {
        let sched = kernel.metrics_snapshot().sched;
        if sched.parked_ejects == sched.resident_ejects {
            return;
        }
        std::thread::yield_now();
    }
}

fn inline_handoffs(kernel: &Kernel) -> u64 {
    kernel.metrics_snapshot().metrics.inline_handoffs
}

/// Forwards `Relay` to `next` as a call and answers one more than it was
/// told; anything that goes wrong downstream comes back as the error's text.
struct Relay {
    next: Uid,
}

impl EjectBehavior for Relay {
    fn type_name(&self) -> &'static str {
        "Relay"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match ctx.call(self.next, inv.op.clone(), inv.arg) {
            Ok(Value::Int(hops)) => reply.reply(Ok(Value::Int(hops + 1))),
            Ok(other) => reply.reply(Ok(other)),
            Err(e) => reply.reply(Ok(Value::str(format!("{e:?}")))),
        }
    }
}

/// The end of a relay chain: answers zero hops.
struct Echo;

impl EjectBehavior for Echo {
    fn type_name(&self) -> &'static str {
        "Echo"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Int(0)));
    }
}

/// What the scheduler did while one pipeline ran.
struct PipelineCalls {
    inline_handoffs: u64,
    /// Most live workers the source saw, sampled every time it was pulled.
    workers_seen: u64,
    workers_after: u64,
}

/// Run a fresh depth-4 identity pipeline of `RECORDS` records at batch 1 on
/// `kernel` (one worker) and check its output. `None`: the previous run's
/// teardown spare had yet to retire.
fn depth_4_pipeline_calls(kernel: &Kernel, discipline: Discipline) -> Option<PipelineCalls> {
    let before = kernel.metrics_snapshot();
    if before.sched.workers != 1 {
        return None;
    }
    let workers_seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let source = {
        let (kernel, seen) = (kernel.clone(), Arc::clone(&workers_seen));
        FnSource::new(RECORDS, move |i| {
            seen.fetch_max(kernel.metrics_snapshot().sched.workers, Ordering::Relaxed);
            Value::Int(i as i64)
        })
    };
    let mut builder = PipelineSpec::new(discipline)
        .source(Box::new(source))
        .batch(1)
        .policy(ChannelPolicy::Integer);
    for _ in 0..4 {
        builder = builder.stage(Box::new(eden::transput::transform::Identity));
    }
    let run = builder
        .build(kernel)
        .expect("pipeline builds")
        .run(Duration::from_secs(60))
        .expect("pipeline completes");
    let expected: Vec<_> = (0..RECORDS as i64).map(Value::Int).collect();
    assert_eq!(run.output, expected);
    let after = kernel.metrics_snapshot();
    Some(PipelineCalls {
        inline_handoffs: after.metrics.inline_handoffs - before.metrics.inline_handoffs,
        workers_seen: workers_seen.load(Ordering::Relaxed),
        workers_after: after.sched.workers,
    })
}

const RECORDS: u64 = 200;

/// The paper's lazy pipeline is a chain of calls, and it runs as one from its
/// first record: the sink's step calls the last stage, every stage's
/// `Transfer` calls its upstream, fresh as it is, and the source answers at
/// the bottom of the stack — n+1 = 5 invocations a record and every one of
/// them a call on the worker that runs the sink's step. Nothing is queued
/// for a worker, and no rendezvous of the data phase asks the pool for a
/// spare: the source sees one live worker each time it is pulled. Nor does
/// teardown: the sink's process is steps, with no thread to join, so the
/// pool is still one worker after it.
#[test]
fn lazy_pipeline_on_one_worker_runs_as_calls_without_spares_or_steals() {
    let kernel = one_worker_kernel();
    until_undisturbed("lazy depth-4 pipeline", || {
        // (A sink whose step starts ahead of a stage's `activate` finds that
        // stage still queued, not parked; such a run is repeated like a
        // disturbed one.)
        depth_4_pipeline_calls(&kernel, Discipline::ReadOnly { read_ahead: 0 }).is_some_and(|ran| {
            ran.inline_handoffs == 5 * RECORDS && ran.workers_seen == 1 && ran.workers_after == 1
        })
    });
    kernel.shutdown();
}

/// Its dual: the source's step calls the first filter, every filter's
/// `Write` calls its downstream, and the acceptor answers at the bottom —
/// the same n+1 calls a record, on the worker that runs the source's step.
#[test]
fn pushing_pipeline_on_one_worker_runs_as_calls_from_the_source_pump() {
    let kernel = one_worker_kernel();
    until_undisturbed("pushing depth-4 pipeline", || {
        depth_4_pipeline_calls(&kernel, Discipline::WriteOnly { push_ahead: 0 })
            .is_some_and(|ran| ran.inline_handoffs == 5 * RECORDS && ran.workers_seen == 1)
    });
    kernel.shutdown();
}

/// The conventional pipeline's pumps call passive buffers. A buffer that is
/// parked runs on the caller's stack; one that cannot answer yet defers, and
/// that pump's step ends, to be posted its next when the reply settles. How
/// many of each is the host's business; that the output is right and that
/// some ran as calls is not, and neither is that a waiting pump takes no
/// thread: the data phase sees one worker.
#[test]
fn conventional_pipeline_on_one_worker_calls_its_buffers_and_steals_nothing() {
    let kernel = one_worker_kernel();
    until_undisturbed("conventional depth-4 pipeline", || {
        depth_4_pipeline_calls(
            &kernel,
            Discipline::Conventional {
                buffer_capacity: 64,
            },
        )
        .is_some_and(|ran| ran.inline_handoffs > 0 && ran.workers_seen == 1)
    });
    kernel.shutdown();
}

/// Passive output: parks the `ReplyHandle` of `Ask` and answers it when
/// `Release` arrives.
struct Deferrer {
    parked: Option<ReplyHandle>,
    asked: Arc<AtomicBool>,
}

impl EjectBehavior for Deferrer {
    fn type_name(&self) -> &'static str {
        "Deferrer"
    }

    // Parking the handle and returning is no wait.
    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, _ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Release" => {
                if let Some(parked) = self.parked.take() {
                    parked.reply(Ok(Value::Int(41)));
                }
                reply.reply(Ok(Value::Unit));
            }
            _ => {
                reply.mark_deferred();
                self.parked = Some(reply);
                self.asked.store(true, Ordering::Release);
            }
        }
    }
}

/// A callee that defers its reply hands the worker back unsettled: the
/// caller falls through to the blocking wait, the pool compensates, and the
/// late reply still arrives.
#[test]
fn deferred_reply_sends_the_caller_down_the_blocking_path() {
    let kernel = one_worker_kernel();
    until_undisturbed("deferred reply", || {
        let before = inline_handoffs(&kernel);
        let asked = Arc::new(AtomicBool::new(false));
        let deferrer = kernel
            .spawn(Box::new(Deferrer {
                parked: None,
                asked: Arc::clone(&asked),
            }))
            .expect("spawn deferrer");
        let relay = kernel
            .spawn(Box::new(Relay { next: deferrer }))
            .expect("spawn relay");
        all_parked(&kernel);
        let pending = kernel.invoke(relay, "Ask", Value::Unit);
        while !asked.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // The worker is asleep in the relay's wait; `Release` needs the
        // spare that blocking compensation provides.
        assert_eq!(
            kernel.invoke(deferrer, "Release", Value::Unit).wait(),
            Ok(Value::Unit)
        );
        assert_eq!(pending.wait(), Ok(Value::Int(42)));
        inline_handoffs(&kernel) - before == 1
    });
    kernel.shutdown();
}

/// Goes off at whatever it is sent.
struct Bomb;

impl EjectBehavior for Bomb {
    fn type_name(&self) -> &'static str {
        "Bomb"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, _reply: ReplyHandle) {
        panic!("bomb went off (expected by the *_panic_* tests of sched_plane)");
    }
}

/// A callee that panics while running on its caller's stack dies alone: the
/// caller reads `EjectCrashed`, finishes its own handler, and both it and
/// the worker keep serving.
#[test]
fn inline_callee_panic_is_a_crash_of_the_callee_alone() {
    let kernel = one_worker_kernel();
    until_undisturbed("inline panic", || {
        let before = inline_handoffs(&kernel);
        let bomb = kernel.spawn(Box::new(Bomb)).expect("spawn bomb");
        let relay = kernel
            .spawn(Box::new(Relay { next: bomb }))
            .expect("spawn relay");
        all_parked(&kernel);
        let crashed = format!("{:?}", eden_core::EdenError::EjectCrashed(bomb));
        assert_eq!(
            kernel.invoke(relay, "Relay", Value::Unit).wait(),
            Ok(Value::str(crashed)),
        );
        let inline = inline_handoffs(&kernel) - before == 1;
        // The relay's Eject survived: it answers again (not with a hop
        // count — the bomb is gone).
        let again = kernel
            .invoke(relay, "Relay", Value::Unit)
            .wait()
            .expect("relay survived");
        assert!(
            again.as_str().is_ok(),
            "the bomb cannot have answered: {again:?}"
        );
        inline
    });
    // So did the worker: it still runs a callee as a call.
    until_undisturbed("handoff after the panic", || {
        let before = inline_handoffs(&kernel);
        let echo = kernel.spawn(Box::new(Echo)).expect("spawn echo");
        let relay = kernel
            .spawn(Box::new(Relay { next: echo }))
            .expect("spawn relay");
        all_parked(&kernel);
        assert_eq!(
            kernel.invoke(relay, "Relay", Value::Unit).wait(),
            Ok(Value::Int(1))
        );
        inline_handoffs(&kernel) - before == 1
    });
    kernel.shutdown();
}

/// `Start` calls the peer and waits; `Ping` is what the peer sends back
/// while `Start` is still on the stack. `depth` counts handler frames of
/// this Eject and `nested` latches if two ever overlap.
struct Reentrant {
    peer: Arc<std::sync::OnceLock<Uid>>,
    depth: Arc<std::sync::atomic::AtomicUsize>,
    nested: Arc<AtomicBool>,
}

impl EjectBehavior for Reentrant {
    fn type_name(&self) -> &'static str {
        "Reentrant"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        if self.depth.fetch_add(1, Ordering::AcqRel) != 0 {
            self.nested.store(true, Ordering::Release);
        }
        let out = match inv.op.as_str() {
            "Start" => ctx.call(*self.peer.get().expect("peer wired"), "Bounce", Value::Unit),
            _ => Ok(Value::str("pong")),
        };
        self.depth.fetch_sub(1, Ordering::AcqRel);
        reply.reply(out);
    }
}

/// `Bounce` invokes the caller back without waiting; `Collect` waits for
/// that reply.
struct Bouncer {
    back: Uid,
    pending: Option<eden::kernel::PendingReply>,
}

impl EjectBehavior for Bouncer {
    fn type_name(&self) -> &'static str {
        "Bouncer"
    }

    // `Bounce` sends without waiting; `Collect` waits before it answers.
    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Bounce" => {
                self.pending = Some(ctx.invoke(self.back, "Ping", Value::Unit));
                reply.reply(Ok(Value::Unit));
            }
            _ => reply.reply(self.pending.take().expect("bounced first").wait()),
        }
    }
}

/// A -> B -> A: B runs on A's stack and invokes A back. A is `RUNNING`, so
/// the send only marks it dirty — it wins no wake, there is nothing to run —
/// and its `Ping` is served after `Start` returns, never inside it.
#[test]
fn reentrant_chain_never_runs_a_task_nested_in_itself() {
    let kernel = one_worker_kernel();
    until_undisturbed("re-entrant chain", || {
        let before = inline_handoffs(&kernel);
        let peer = Arc::new(std::sync::OnceLock::new());
        let depth = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let nested = Arc::new(AtomicBool::new(false));
        let a = kernel
            .spawn(Box::new(Reentrant {
                peer: Arc::clone(&peer),
                depth,
                nested: Arc::clone(&nested),
            }))
            .expect("spawn a");
        let b = kernel
            .spawn(Box::new(Bouncer {
                back: a,
                pending: None,
            }))
            .expect("spawn b");
        peer.set(b).expect("wire once");
        all_parked(&kernel);
        assert_eq!(
            kernel.invoke(a, "Start", Value::Unit).wait(),
            Ok(Value::Unit)
        );
        // B ran inline under A iff A's call was what woke it.
        let inline = inline_handoffs(&kernel) - before == 1;
        assert_eq!(
            kernel.invoke(b, "Collect", Value::Unit).wait(),
            Ok(Value::str("pong"))
        );
        assert!(
            !nested.load(Ordering::Acquire),
            "A's handler was entered while it was running"
        );
        inline
    });
    kernel.shutdown();
}

/// Counts its `Hit`s in a plain field, and latches `inside` for as long as
/// its handler runs: a handler entered while it is already inside panics,
/// and two threads sharing the body would lose counts.
struct Solo {
    inside: Arc<AtomicBool>,
    hits: i64,
}

impl EjectBehavior for Solo {
    fn type_name(&self) -> &'static str {
        "Solo"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        assert!(
            !self.inside.swap(true, Ordering::AcqRel),
            "Solo entered while already inside"
        );
        self.hits += 1;
        std::thread::yield_now();
        self.inside.store(false, Ordering::Release);
        reply.reply(Ok(Value::Int(self.hits)));
    }
}

/// One stage of a fan-in: `Feed(n)` calls `Solo` `n` times from whichever
/// pool worker runs it, and answers how many calls came back.
struct Feeder {
    solo: Uid,
}

impl EjectBehavior for Feeder {
    fn type_name(&self) -> &'static str {
        "Feeder"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        let n = inv.arg.as_int().unwrap_or(0);
        let answered = (0..n)
            .filter(|_| matches!(ctx.call(self.solo, "Hit", Value::Unit), Ok(Value::Int(_))))
            .count();
        reply.reply(Ok(Value::Int(answered as i64)));
    }
}

/// A `replies_last` Eject called at once from pool workers (four stages
/// fanning in on it) and from four user threads, all with calls that run it
/// on the caller's stack when they win its wake. Its body has no lock: only
/// the park bit keeps two of those threads out of it at once. Its handler is
/// never entered while inside, and no count is lost.
#[test]
fn a_callee_called_from_workers_and_user_threads_at_once_runs_on_one_at_a_time() {
    const CALLS: i64 = 2_000;
    const STAGES: usize = 4;
    const THREADS: usize = 4;
    let kernel = two_worker_kernel();
    let inside = Arc::new(AtomicBool::new(false));
    let solo = kernel
        .spawn(Box::new(Solo {
            inside: Arc::clone(&inside),
            hits: 0,
        }))
        .expect("spawn solo");
    let feeders: Vec<Uid> = (0..STAGES)
        .map(|_| {
            kernel
                .spawn(Box::new(Feeder { solo }))
                .expect("spawn feeder")
        })
        .collect();
    let before = inline_handoffs(&kernel);
    let fed: Vec<PendingReply> = feeders
        .iter()
        .map(|&feeder| kernel.invoke(feeder, "Feed", Value::Int(CALLS)))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..CALLS {
                    assert!(matches!(
                        kernel.call(solo, "Hit", Value::Unit),
                        Ok(Value::Int(_))
                    ));
                }
            });
        }
    });
    for reply in fed {
        assert_eq!(reply.wait(), Ok(Value::Int(CALLS)));
    }
    let total = CALLS * (STAGES + THREADS) as i64;
    assert_eq!(
        kernel.call(solo, "Hit", Value::Unit),
        Ok(Value::Int(total + 1))
    );
    assert!(inline_handoffs(&kernel) > before, "no call ran inline");
    kernel.shutdown();
}

/// Answers `Ack` and only then takes its nap — a bare sleep, which the
/// kernel cannot see.
struct Lingerer {
    naps: Arc<std::sync::atomic::AtomicUsize>,
}

impl EjectBehavior for Lingerer {
    fn type_name(&self) -> &'static str {
        "Lingerer"
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
        std::thread::sleep(Duration::from_millis(150));
        self.naps.fetch_add(1, Ordering::Release);
    }
}

/// Calls `next` and answers how many milliseconds the call took.
struct TimedCall {
    next: Uid,
}

impl EjectBehavior for TimedCall {
    fn type_name(&self) -> &'static str {
        "TimedCall"
    }

    fn handle(&mut self, ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        let from = Instant::now();
        let outcome = ctx.call(self.next, "Ack", Value::Unit);
        let waited_ms = from.elapsed().as_millis() as i64;
        reply.reply(outcome.map(|_| Value::Int(waited_ms)));
    }
}

/// A wait returns when the callee replies, not when its handler returns,
/// and a call cannot tell the two apart. So a callee that keeps going after
/// its reply does not declare `replies_last`, and is never run as a call.
#[test]
fn callee_that_replies_and_lingers_does_not_hold_its_caller() {
    let kernel = one_worker_kernel();
    let naps = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let lingerer = kernel
        .spawn(Box::new(Lingerer {
            naps: Arc::clone(&naps),
        }))
        .expect("spawn lingerer");
    let caller = kernel
        .spawn(Box::new(TimedCall { next: lingerer }))
        .expect("spawn caller");
    for round in 1..=3 {
        match kernel.invoke(caller, "Go", Value::Unit).wait() {
            Ok(Value::Int(waited_ms)) => assert!(
                waited_ms < 100,
                "round {round}: the wait took {waited_ms} ms of the callee's 150 ms nap"
            ),
            other => panic!("round {round}: {other:?}"),
        }
        // The next round's `Ack` must not queue behind this round's nap.
        while naps.load(Ordering::Acquire) < round {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert_eq!(inline_handoffs(&kernel), 0);
    kernel.shutdown();
}

/// Answers `Bounce` and then calls `back` — its own caller — keeping what
/// came of it. Which breaks the promise of `replies_last`, whether or not
/// it `declares` it.
struct Boomerang {
    back: Uid,
    declares: bool,
    outcomes: Arc<std::sync::Mutex<Vec<Result<Value, eden_core::EdenError>>>>,
}

impl EjectBehavior for Boomerang {
    fn type_name(&self) -> &'static str {
        "Boomerang"
    }

    fn replies_last(&self) -> bool {
        self.declares
    }

    fn handle(&mut self, ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
        let outcome = ctx
            .invoke(self.back, "Ping", Value::Unit)
            .wait_timeout(Duration::from_secs(3));
        self.outcomes.lock().expect("outcomes").push(outcome);
    }
}

/// One A (a [`Reentrant`]) and one B (a [`Boomerang`]) wired to each other.
struct BoomerangPair {
    a: Uid,
    b: Uid,
    outcomes: Arc<std::sync::Mutex<Vec<Result<Value, eden_core::EdenError>>>>,
}

impl BoomerangPair {
    fn spawn(kernel: &Kernel, b_declares: bool) -> BoomerangPair {
        let peer = Arc::new(std::sync::OnceLock::new());
        let a = kernel
            .spawn(Box::new(Reentrant {
                peer: Arc::clone(&peer),
                depth: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
                nested: Arc::new(AtomicBool::new(false)),
            }))
            .expect("spawn a");
        let outcomes = Arc::new(std::sync::Mutex::new(Vec::new()));
        let b = kernel
            .spawn(Box::new(Boomerang {
                back: a,
                declares: b_declares,
                outcomes: Arc::clone(&outcomes),
            }))
            .expect("spawn b");
        peer.set(b).expect("wire once");
        BoomerangPair { a, b, outcomes }
    }

    /// Run `A.Start` (which calls `B.Bounce` and waits); return how long A
    /// took to answer and what B's call back to A came to.
    fn start(
        &self,
        kernel: &Kernel,
        round: usize,
    ) -> (Duration, Result<Value, eden_core::EdenError>) {
        all_parked(kernel);
        let from = Instant::now();
        assert_eq!(
            kernel.invoke(self.a, "Start", Value::Unit).wait(),
            Ok(Value::Unit)
        );
        let took = from.elapsed();
        loop {
            if let Some(outcome) = self.outcomes.lock().expect("outcomes").get(round) {
                return (took, outcome.clone());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// A callee that replies and then calls its caller back is the case a call
/// would deadlock: the caller is in the frame beneath, unable to serve
/// anything until the callee returns. Waiting for B's reply does not have
/// that problem, and B, which does not declare `replies_last`, is never run
/// as a call, so A goes on at B's reply, serves the `Ping`, and B's call back
/// succeeds — every time.
#[test]
fn callee_that_replies_and_calls_its_caller_back_succeeds() {
    let kernel = one_worker_kernel();
    let pair = BoomerangPair::spawn(&kernel, false);
    for round in 0..3 {
        let (took, outcome) = pair.start(&kernel, round);
        assert_eq!(outcome, Ok(Value::str("pong")), "round {round}");
        assert!(
            took < Duration::from_secs(1),
            "round {round}: A answered after {took:?}"
        );
    }
    assert_eq!(inline_handoffs(&kernel), 0);
    kernel.shutdown();
}

/// A behaviour that declares `replies_last` and then waits after replying has
/// broken its word, and a debug build says so where it happens: B crashes at
/// the wait with the assertion's message — on A's stack or, after a
/// disturbance, on a thread of its own — and crashes alone. A has its reply,
/// answers `Start`, and goes on serving.
#[cfg(debug_assertions)]
#[test]
fn callee_that_declares_and_waits_after_its_reply_crashes_alone() {
    static PANICS: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    let print = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.lock().expect("panics").push(info.to_string());
        print(info);
    }));
    let kernel = one_worker_kernel();
    let pair = BoomerangPair::spawn(&kernel, true);
    assert_eq!(
        kernel.invoke(pair.a, "Start", Value::Unit).wait(),
        Ok(Value::Unit)
    );
    // Never checkpointed, so the crash removes B.
    let gone = Err(eden_core::EdenError::NoSuchEject(pair.b));
    while kernel.invoke(pair.b, "Bounce", Value::Unit).wait() != gone {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        pair.outcomes.lock().expect("outcomes").is_empty(),
        "B's wait returned"
    );
    assert!(
        PANICS
            .lock()
            .expect("panics")
            .iter()
            .any(|message| message.contains("declares replies_last waited after its reply")),
        "B did not die of the assertion"
    );
    assert_eq!(
        kernel.invoke(pair.a, "Ping", Value::Unit).wait(),
        Ok(Value::str("pong"))
    );
    kernel.shutdown();
}

/// Answers and then calls `next`: the same broken promise, spelled `call`.
#[cfg(debug_assertions)]
struct Forwarder {
    next: Uid,
}

#[cfg(debug_assertions)]
impl EjectBehavior for Forwarder {
    fn type_name(&self) -> &'static str {
        "Forwarder"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
        let _ = ctx.call(self.next, inv.op, inv.arg);
    }
}

/// A `call` is a wait with a send in front, and the send has happened — may
/// have woken its target — by the time a debug build finds the caller out.
/// The liar crashes alone all the same; the Eject it woke on its way out is
/// run or queued, never dropped with the panic.
#[cfg(debug_assertions)]
#[test]
fn callee_that_declares_and_calls_after_its_reply_strands_nobody() {
    // Not dropped on a failed check, where a stranded Eject would turn the
    // failure into a hang; dropped once every check passed.
    let kernel = std::mem::ManuallyDrop::new(one_worker_kernel());
    let echo = kernel.spawn(Box::new(Echo)).expect("spawn echo");
    let liar = kernel
        .spawn(Box::new(Forwarder { next: echo }))
        .expect("spawn liar");
    all_parked(&kernel);
    assert_eq!(
        kernel.invoke(liar, "Relay", Value::Unit).wait(),
        Ok(Value::Unit)
    );
    // Never checkpointed, so the crash removes it.
    kernel.await_gone(&[liar], Duration::from_secs(10));
    assert_eq!(
        kernel
            .invoke(echo, "Relay", Value::Unit)
            .wait_timeout(Duration::from_secs(5)),
        Ok(Value::Int(0)),
        "the Eject the liar woke was left queued nowhere",
    );
    kernel.shutdown();
    drop(std::mem::ManuallyDrop::into_inner(kernel));
}

/// A release build does not check the promise, so a behaviour that breaks it
/// is run as a call every time: that `Bounce` runs on A's stack, its call
/// back to A cannot be served from there, and it is told so at once rather
/// than after its 3 s budget — while A, which got its reply, goes on as soon
/// as B's handler returns.
#[cfg(not(debug_assertions))]
#[test]
fn callee_that_declares_and_waits_after_its_reply_is_refused_at_once() {
    let kernel = one_worker_kernel();
    until_undisturbed("broken promise", || {
        let pair = BoomerangPair::spawn(&kernel, true);
        let mut all_inline = true;
        for round in 0..3 {
            let before = inline_handoffs(&kernel);
            let (took, outcome) = pair.start(&kernel, round);
            assert!(
                took < Duration::from_secs(1),
                "round {round}: A was held for {took:?}"
            );
            if inline_handoffs(&kernel) - before == 1 {
                assert_eq!(outcome, Err(eden_core::EdenError::Timeout), "round {round}");
            } else {
                assert_eq!(outcome, Ok(Value::str("pong")), "round {round}");
                all_inline = false;
            }
        }
        assert_eq!(
            kernel.eject_state(pair.b),
            Some(eden::kernel::EjectState::Active)
        );
        all_inline
    });
    kernel.shutdown();
}

/// A call chain longer than the scheduler's nesting cap (16 resumes on one
/// stack) still completes: the call at the cap enqueues its callee and
/// sleeps like any other wait, and the rest of the chain runs on other
/// threads.
#[test]
fn call_chain_deeper_than_the_nesting_cap_completes() {
    const CHAIN: i64 = 24;
    let kernel = two_worker_kernel();
    until_undisturbed("24-deep call chain", || {
        let before = inline_handoffs(&kernel);
        let mut head = kernel.spawn(Box::new(Echo)).expect("spawn echo");
        for _ in 0..CHAIN {
            head = kernel
                .spawn(Box::new(Relay { next: head }))
                .expect("spawn relay");
        }
        all_parked(&kernel);
        assert_eq!(
            kernel.invoke(head, "Relay", Value::Unit).wait(),
            Ok(Value::Int(CHAIN))
        );
        // One stack holds the pickup and 15 handoffs; the call at the cap
        // is declined, so even if the sibling that picks its callee up
        // carries the rest inline the chain's 24 sends cannot all have been
        // calls.
        let handoffs = inline_handoffs(&kernel) - before;
        assert!(
            handoffs < CHAIN as u64,
            "{handoffs} handoffs: the cap never declined"
        );
        handoffs >= 15
    });
    kernel.shutdown();
}

// ---------------------------------------------------------------------
// The same off the pool. The election never asks whose thread the caller
// is on, so a user's thread (here: the test's) and an Eject's process run
// their callees exactly as a worker does.

fn this_thread() -> Value {
    Value::str(format!("{:?}", std::thread::current().id()))
}

/// Answers which thread its handler ran on.
struct WhereAmI {
    declares: bool,
}

impl EjectBehavior for WhereAmI {
    fn type_name(&self) -> &'static str {
        "WhereAmI"
    }

    fn replies_last(&self) -> bool {
        self.declares
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(this_thread()));
    }
}

/// `kernel.call` from a thread that is no worker runs a declared, parked
/// callee on that very thread — uncached, on a route-cache miss and on a hit
/// alike, each counted — and never an undeclared one, however parked.
#[test]
fn call_from_a_user_thread_runs_a_declared_callee_on_that_thread() {
    let kernel = one_worker_kernel();
    until_undisturbed("call from the test thread", || {
        let before = inline_handoffs(&kernel);
        let callee = kernel
            .spawn(Box::new(WhereAmI { declares: true }))
            .expect("spawn callee");
        all_parked(&kernel);
        let first = kernel
            .call(callee, "Where", Value::Unit)
            .expect("callee answers");
        if first != this_thread() {
            assert_eq!(
                inline_handoffs(&kernel),
                before,
                "counted a call that ran elsewhere"
            );
            return false;
        }
        // A callee that ran here also parked here, before the call returned:
        // from now on every call finds it parked.
        let mut cache = eden::kernel::RouteCache::new();
        for _ in 0..2 {
            assert_eq!(
                kernel.call_routed(&mut cache, callee, "Where", Value::Unit),
                Ok(this_thread())
            );
        }
        assert_eq!(inline_handoffs(&kernel) - before, 3);
        true
    });
    let before = inline_handoffs(&kernel);
    let undeclared = kernel
        .spawn(Box::new(WhereAmI { declares: false }))
        .expect("spawn callee");
    for _ in 0..3 {
        all_parked(&kernel);
        let ran_on = kernel
            .call(undeclared, "Where", Value::Unit)
            .expect("callee answers");
        assert_ne!(ran_on, this_thread(), "an undeclared callee ran as a call");
    }
    assert_eq!(inline_handoffs(&kernel), before);
    kernel.shutdown();
}

/// A callee that panics on a user's thread is caught there like on a
/// worker's: it crashes alone, the caller reads `EjectCrashed`, and the
/// thread lives to call again.
#[test]
fn inline_callee_panic_on_a_user_thread_is_a_crash_of_the_callee_alone() {
    let kernel = one_worker_kernel();
    until_undisturbed("panic under the test thread", || {
        let before = inline_handoffs(&kernel);
        let bomb = kernel.spawn(Box::new(Bomb)).expect("spawn bomb");
        let echo = kernel.spawn(Box::new(Echo)).expect("spawn echo");
        all_parked(&kernel);
        assert_eq!(
            kernel.call(bomb, "Relay", Value::Unit),
            Err(eden_core::EdenError::EjectCrashed(bomb)),
        );
        let inline = inline_handoffs(&kernel) - before == 1;
        // Never checkpointed, so the crash — reaped on this thread, if the
        // bomb ran here — removed it.
        kernel.await_gone(&[bomb], Duration::from_secs(10));
        assert_eq!(kernel.call(echo, "Relay", Value::Unit), Ok(Value::Int(0)));
        inline && inline_handoffs(&kernel) - before == 2
    });
    kernel.shutdown();
}

/// A callee that defers its reply hands the caller's thread back unsettled,
/// and the caller is then in the ordinary wait: the late reply, sent from a
/// pool worker, wakes it.
#[test]
fn deferred_reply_leaves_a_calling_user_thread_in_the_ordinary_wait() {
    let kernel = one_worker_kernel();
    until_undisturbed("deferred reply to a user thread", || {
        let before = inline_handoffs(&kernel);
        let asked = Arc::new(AtomicBool::new(false));
        let deferrer = kernel
            .spawn(Box::new(Deferrer {
                parked: None,
                asked: Arc::clone(&asked),
            }))
            .expect("spawn deferrer");
        all_parked(&kernel);
        let answer = std::thread::scope(|scope| {
            let caller = scope.spawn(|| kernel.call(deferrer, "Ask", Value::Unit));
            while !asked.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            assert_eq!(
                kernel.invoke(deferrer, "Release", Value::Unit).wait(),
                Ok(Value::Unit)
            );
            caller.join().expect("calling thread")
        });
        assert_eq!(answer, Ok(Value::Int(41)));
        inline_handoffs(&kernel) - before == 1
    });
    kernel.shutdown();
}

/// One stage of a call chain that counts its own handoffs: the caller's
/// thread comes in the argument, and the answer is how many of the calls
/// from here down ran on their caller's thread, this one included.
struct CountingHop {
    next: Option<Uid>,
}

impl EjectBehavior for CountingHop {
    fn type_name(&self) -> &'static str {
        "CountingHop"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        let here = i64::from(inv.arg == this_thread());
        let below = match self.next {
            Some(next) => ctx
                .call(next, "Hop", this_thread())
                .and_then(|v| v.as_int()),
            None => Ok(0),
        };
        reply.reply(below.map(|below| Value::Int(below + here)));
    }
}

/// Drives a counting chain from its own steps, `rounds` calls in all, adding
/// up the handoffs it is told of.
struct CountingPump {
    head: Uid,
    rounds: u64,
    inline: Arc<std::sync::atomic::AtomicU64>,
    done: Arc<std::sync::atomic::AtomicU64>,
}

impl EjectBehavior for CountingPump {
    fn type_name(&self) -> &'static str {
        "CountingPump"
    }

    fn activate(&mut self, ctx: &EjectContext) {
        ctx.nudge();
    }

    fn internal(&mut self, ctx: &EjectContext, _event: Value) {
        let inline = ctx
            .call(self.head, "Hop", this_thread())
            .and_then(|v| v.as_int());
        self.inline
            .fetch_add(inline.expect("the chain answers") as u64, Ordering::Relaxed);
        self.rounds -= 1;
        if self.rounds == 0 {
            self.done.fetch_add(1, Ordering::Release);
        } else {
            ctx.nudge();
        }
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
    }
}

/// The scheduler's per-hop counts are sharded by recording thread and summed
/// when read, and they stay exact with the pool on every CPU: after eight
/// depth-4 chains have pumped at once, `inline_handoffs` is the number of
/// calls whose callee ran on its caller's thread, the parked gauge at rest is
/// every resident Eject, `replies` is every invocation, and the outcome
/// ledger balances.
#[test]
fn scheduler_counts_stay_exact_with_eight_pipelines_on_every_cpu() {
    const PIPELINES: u64 = 8;
    const ROUNDS: u64 = 250;
    let kernel = Kernel::new();
    let before = kernel.metrics_snapshot();
    let inline = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let done = Arc::new(std::sync::atomic::AtomicU64::new(0));
    for _ in 0..PIPELINES {
        let mut head = kernel
            .spawn(Box::new(CountingHop { next: None }))
            .expect("spawn tail");
        for _ in 0..4 {
            head = kernel
                .spawn(Box::new(CountingHop { next: Some(head) }))
                .expect("spawn stage");
        }
        let pump = CountingPump {
            head,
            rounds: ROUNDS,
            inline: Arc::clone(&inline),
            done: Arc::clone(&done),
        };
        kernel.spawn(Box::new(pump)).expect("spawn pump");
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let at_rest = || {
        let sched = kernel.metrics_snapshot().sched;
        done.load(Ordering::Acquire) == PIPELINES && sched.parked_ejects == sched.resident_ejects
    };
    while !at_rest() {
        assert!(
            Instant::now() < deadline,
            "the pipelines never came to rest"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let after = kernel.metrics_snapshot();
    assert_eq!(after.sched.resident_ejects, PIPELINES * 6);
    assert_eq!(after.sched.parked_ejects, PIPELINES * 6);
    let sent = PIPELINES * ROUNDS * 5;
    let inline_made = inline.load(Ordering::Relaxed);
    assert!(inline_made > 0, "no call ran inline");
    assert_eq!(
        after.metrics.inline_handoffs - before.metrics.inline_handoffs,
        inline_made
    );
    let m = after.metrics.since(&before.metrics);
    assert_eq!((m.invocations, m.replies), (sent, sent));
    assert_eq!((m.successes, m.fatal_failures), (sent, 0));
    kernel.shutdown();
}

/// The nesting cap counts resumes on a stack, not workers: a user's thread
/// carries 16 of a 24-deep chain's calls and is declined the 17th, which a
/// pool worker picks up and carries on from.
#[test]
fn call_chain_from_a_user_thread_is_capped_like_a_workers() {
    const CHAIN: i64 = 24;
    let kernel = two_worker_kernel();
    until_undisturbed("24-deep call chain off the pool", || {
        let before = inline_handoffs(&kernel);
        let mut head = kernel.spawn(Box::new(Echo)).expect("spawn echo");
        for _ in 0..CHAIN {
            head = kernel
                .spawn(Box::new(Relay { next: head }))
                .expect("spawn relay");
        }
        all_parked(&kernel);
        assert_eq!(
            kernel.call(head, "Relay", Value::Unit),
            Ok(Value::Int(CHAIN))
        );
        // The chain makes 25 sends, this thread's included.
        let handoffs = inline_handoffs(&kernel) - before;
        assert!(
            handoffs <= CHAIN as u64,
            "{handoffs} handoffs: the cap never declined"
        );
        handoffs >= 16
    });
    kernel.shutdown();
}

/// Sleeps through `Nap` before answering.
struct Sleeper;

impl EjectBehavior for Sleeper {
    fn type_name(&self) -> &'static str {
        "Sleeper"
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        eden::kernel::blocking(|| std::thread::sleep(Duration::from_millis(200)));
        reply.reply(Ok(Value::Unit));
    }
}

/// Waits for `Nap` with a 10 ms budget and reports how long that took.
struct Impatient {
    sleeper: Uid,
}

impl EjectBehavior for Impatient {
    fn type_name(&self) -> &'static str {
        "Impatient"
    }

    fn handle(&mut self, ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        let from = Instant::now();
        let outcome = ctx
            .invoke(self.sleeper, "Nap", Value::Unit)
            .wait_timeout(Duration::from_millis(10));
        let waited_ms = from.elapsed().as_millis() as i64;
        reply.reply(match outcome {
            Err(eden_core::EdenError::Timeout) => Ok(Value::Int(waited_ms)),
            other => Ok(Value::str(format!("expected Timeout, got {other:?}"))),
        });
    }
}

/// A caller-set deadline is a property of the call that rules the handoff
/// out: `wait_timeout(10 ms)` against a 200 ms handler comes back in about
/// 10 ms, because the caller slept beside the callee instead of running it.
#[test]
fn wait_timeout_from_a_worker_does_not_lend_its_thread_to_a_slow_callee() {
    let kernel = two_worker_kernel();
    let sleeper = kernel.spawn(Box::new(Sleeper)).expect("spawn sleeper");
    let impatient = kernel
        .spawn(Box::new(Impatient { sleeper }))
        .expect("spawn impatient");
    match kernel.invoke(impatient, "Go", Value::Unit).wait() {
        Ok(Value::Int(waited_ms)) => assert!(
            (10..180).contains(&waited_ms),
            "a 10 ms budget took {waited_ms} ms against a 200 ms handler"
        ),
        other => panic!("{other:?}"),
    }
    assert_eq!(inline_handoffs(&kernel), 0);
    kernel.shutdown();
}

/// The wake discipline on one CPU (the affinity calls are Linux's).
#[cfg(target_os = "linux")]
mod one_cpu {
    use super::*;

    /// Restrict the calling thread, and every thread it spawns from now on, to
    /// the first CPU it may run on. A kernel built afterwards reads a core quota
    /// of 1 (`available_parallelism` goes by the mask) — what three of the five
    /// `BENCHMARK.json` workloads run under — while keeping its two workers.
    fn pin_to_one_cpu() {
        type CpuSet = [u64; 16];
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        }
        let size = std::mem::size_of::<CpuSet>();
        let mut inherited: CpuSet = [0; 16];
        // SAFETY: `inherited` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        assert_eq!(unsafe { sched_getaffinity(0, size, &mut inherited) }, 0);
        let cpu = (0..1024)
            .find(|cpu| inherited[cpu / 64] & (1u64 << (cpu % 64)) != 0)
            .expect("an inherited CPU");
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1u64 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly the size passed; pid 0 names
        // the calling thread.
        assert_eq!(unsafe { sched_setaffinity(0, size, &one) }, 0);
        let quota = std::thread::available_parallelism().map(std::num::NonZeroUsize::get);
        assert_eq!(
            quota.ok(),
            Some(1),
            "pinned, the host still reads as several CPUs"
        );
    }

    /// One hop of a chain of waiting callees. It does not declare
    /// `replies_last`, so it is never run as a call: passing `Go` on to `next` is
    /// a send, a worker gone into a blocking section, and a wake somebody has to
    /// send. Before that, on every 16th call, it naps for 1 ms — a pause long
    /// enough for the rest of the pool to park, as one fsync is — so that the
    /// send that follows finds nobody else awake. Answers whether any hop napped.
    struct Hop {
        next: Option<Uid>,
        calls: u64,
    }

    impl EjectBehavior for Hop {
        fn type_name(&self) -> &'static str {
            "Hop"
        }

        fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
            self.calls += 1;
            let nap = self.calls.is_multiple_of(16);
            if nap {
                eden::kernel::blocking(|| std::thread::sleep(Duration::from_millis(1)));
            }
            reply.reply(match self.next {
                Some(next) => ctx.invoke(next, inv.op.clone(), inv.arg).wait(),
                None => Ok(Value::Bool(nap)),
            });
        }
    }

    const CHAIN_CALLS: usize = 200;

    /// `Go` to `head`, `CHAIN_CALLS` times over, by way of `invoke` (the test's
    /// own thread, or a handler's context): whether the chain napped on the way, and
    /// how many microseconds the call took.
    fn timed_chain_calls(invoke: impl Fn() -> Result<Value, eden_core::EdenError>) -> Vec<Value> {
        let calls = (0..CHAIN_CALLS).map(|_| {
            let from = Instant::now();
            let napped = invoke().expect("the chain answers");
            Value::list(vec![napped, Value::Int(from.elapsed().as_micros() as i64)])
        });
        calls.collect()
    }

    /// Makes the chain's calls itself, from inside a blocking section: a worker
    /// that is already counted blocked when it sends.
    struct BlockedDriver {
        head: Uid,
    }

    impl EjectBehavior for BlockedDriver {
        fn type_name(&self) -> &'static str {
            "BlockedDriver"
        }

        fn handle(&mut self, ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
            let go = || ctx.invoke(self.head, "Go", Value::Unit).wait();
            let timings = eden::kernel::blocking(|| timed_chain_calls(go));
            reply.reply(Ok(Value::list(timings)));
        }
    }

    /// A worker that enters a blocking section is as gone as one that sleeps,
    /// and must leave the same way: count itself out, then look at the queues.
    /// Before it did, its own push (or a spare's send) was left to the "active"
    /// worker the pusher still was, nobody was woken, and once an earlier pause
    /// had let the pool park — the nap — the task sat until a backstop found it:
    /// the stall monitor after 2 ms, or a sleeper's 10 ms timeout. So: on one
    /// CPU, through a chain of waiting callees, the monitor rescues nothing and
    /// no call that did not nap takes a millisecond — driven from a user thread,
    /// and from a handler that is itself inside a blocking section.
    #[test]
    fn worker_going_blocked_on_one_cpu_leaves_no_task_to_the_backstops() {
        pin_to_one_cpu();
        for from_blocked_handler in [false, true] {
            let kernel = Kernel::builder().build();
            let hop = |next| {
                kernel
                    .spawn(Box::new(Hop { next, calls: 0 }))
                    .expect("spawn hop")
            };
            let head = hop(Some(hop(Some(hop(None)))));
            let driver = kernel
                .spawn(Box::new(BlockedDriver { head }))
                .expect("spawn driver");
            let what =
                format!("waiting chain, driven from a blocked handler: {from_blocked_handler}");
            until_undisturbed(&what, || {
                all_parked(&kernel);
                let rescues = || kernel.metrics_snapshot().metrics.monitor_rescues;
                let before = rescues();
                let timings = match from_blocked_handler {
                    false => timed_chain_calls(|| kernel.invoke(head, "Go", Value::Unit).wait()),
                    true => {
                        let reply = kernel.invoke(driver, "Go", Value::Unit).wait();
                        reply
                            .and_then(|v| v.as_list().map(<[Value]>::to_vec))
                            .expect("timings")
                    }
                };
                assert_eq!(timings.len(), CHAIN_CALLS);
                let prompt = timings.iter().all(|timing| match timing.as_list() {
                    Ok([Value::Bool(napped), Value::Int(micros)]) => *napped || *micros < 1_000,
                    other => panic!("{other:?}"),
                });
                prompt && rescues() == before
            });
            kernel.shutdown();
        }
    }
}

/// Calls `callee`, which declares `replies_last` and so runs as a call on
/// this worker's stack, until `INLINE_CHAIN` has passed; answers how many
/// calls it made.
struct InlineCaller {
    callee: Uid,
}

/// Twenty stall-monitor ticks.
const INLINE_CHAIN: Duration = Duration::from_millis(20);

impl EjectBehavior for InlineCaller {
    fn type_name(&self) -> &'static str {
        "InlineCaller"
    }

    fn handle(&mut self, ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        let from = Instant::now();
        let mut calls = 0;
        while from.elapsed() < INLINE_CHAIN {
            ctx.call(self.callee, "Echo", Value::Unit)
                .expect("the callee answers");
            calls += 1;
        }
        reply.reply(Ok(Value::Int(calls)));
    }
}

/// A worker running a chain of inline calls picks nothing up, and is making
/// progress all the same. So on a one-worker pool whose worker runs such a
/// chain for twenty monitor ticks while another task waits in the run queue,
/// the stall monitor rescues nothing and spawns no spare. (While progress was
/// the pickups alone, every run counted a stall and spawned one.)
#[test]
fn an_inline_chain_is_progress_to_the_stall_monitor() {
    until_undisturbed("an inline chain beside a queued task", || {
        let kernel = Kernel::builder()
            .scheduler(SchedulerConfig { workers: 1 })
            .build();
        let callee = kernel.spawn(Box::new(Echo)).expect("spawn callee");
        let caller = kernel
            .spawn(Box::new(InlineCaller { callee }))
            .expect("spawn caller");
        let waiting = kernel.spawn(Box::new(Echo)).expect("spawn waiting");
        all_parked(&kernel);
        let chain = kernel.invoke(caller, "Go", Value::Unit);
        while inline_handoffs(&kernel) == 0 {
            std::thread::yield_now();
        }
        // Runnable, with the one worker inside the chain.
        let queued = kernel.invoke(waiting, "Echo", Value::Unit);
        let calls = chain.wait().expect("the chain answers");
        assert!(matches!(calls, Value::Int(n) if n > 0), "{calls:?}");
        assert_eq!(queued.wait(), Ok(Value::Int(0)));
        let counts = kernel.metrics_snapshot().metrics;
        kernel.shutdown();
        // An OS preemption of the worker is a stall the monitor may break.
        counts.monitor_rescues == 0 && counts.spares_spawned == 0
    });
}

/// Checkpoints itself `CHECKPOINTS` times from one handler.
struct Checkpointer;

const CHECKPOINTS: i64 = 200;

impl EjectBehavior for Checkpointer {
    fn type_name(&self) -> &'static str {
        "Checkpointer"
    }

    fn handle(&mut self, ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        let written = (0..CHECKPOINTS).try_for_each(|i| ctx.checkpoint(&Value::Int(i)));
        reply.reply(written.map(|()| Value::Int(CHECKPOINTS)));
    }
}

/// A durable write blocks its worker only in an fsync: an append to the
/// page cache is no rendezvous. So a one-worker pool whose Eject
/// checkpoints 200 times from its handler, on a durable store that fsyncs
/// every 1000 batches, never counts its worker out and spawns no spare.
/// (When every append entered the scheduler's blocking compensation, the
/// first one found no other worker able to run and spawned one.)
#[test]
fn checkpoints_that_only_append_spawn_no_spare_worker() {
    let dir = std::env::temp_dir().join(format!(
        "eden-sched-append-{}-{}",
        std::process::id(),
        Uid::fresh().seq()
    ));
    until_undisturbed("200 appending checkpoints on one worker", || {
        let kernel = Kernel::builder()
            .scheduler(SchedulerConfig { workers: 1 })
            .durable_store(&dir, FsyncPolicy::EveryN(1000))
            .expect("open durable store")
            .build();
        let eject = kernel.spawn(Box::new(Checkpointer)).expect("spawn");
        all_parked(&kernel);
        let written = kernel.invoke(eject, "Go", Value::Unit).wait();
        assert_eq!(written, Ok(Value::Int(CHECKPOINTS)));
        let counts = kernel.metrics_snapshot().metrics;
        kernel.shutdown();
        // A stall the monitor broke may have spawned a spare of its own.
        let undisturbed = counts.monitor_rescues == 0;
        if undisturbed {
            assert_eq!(counts.spares_spawned, 0, "{counts:?}");
        }
        undisturbed
    });
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Answers its first `fail` invocations with the retryable `Timeout` — what
/// a dropped attempt resolves as — and the rest with 5, noting when each
/// arrived.
struct Flaky {
    fail: usize,
    arrivals: Arc<std::sync::Mutex<Vec<Instant>>>,
}

impl EjectBehavior for Flaky {
    fn type_name(&self) -> &'static str {
        "Flaky"
    }

    fn replies_last(&self) -> bool {
        true
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        let mut arrivals = self.arrivals.lock().unwrap();
        arrivals.push(Instant::now());
        match arrivals.len() > self.fail {
            true => reply.reply(Ok(Value::Int(5))),
            false => reply.reply(Err(eden::core::EdenError::Timeout)),
        }
    }
}

/// Calls `Add` on the Eject its `Go` names by `begin_call` under a retry
/// policy, and answers `Go` once `poll_reply` has the outcome, asking again
/// on each internal event.
struct RetryingCaller {
    policy: RetryPolicy,
    call: Option<(PendingReply, ReplyHandle)>,
}

impl EjectBehavior for RetryingCaller {
    fn type_name(&self) -> &'static str {
        "RetryingCaller"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        let target = inv.arg.as_uid().expect("a target's uid");
        let opts = InvokeOptions::new().retry(self.policy);
        self.call = Some((ctx.begin_call(target, "Add", Value::Int(5), opts), reply));
        self.internal(ctx, Value::Unit);
    }

    fn internal(&mut self, ctx: &EjectContext, _event: Value) {
        if let Some((mut pending, reply)) = self.call.take() {
            match ctx.poll_reply(&mut pending) {
                Some(outcome) => reply.reply(outcome),
                None => self.call = Some((pending, reply)),
            }
        }
    }
}

/// A retry's backoff is an arm on the kernel's timer, not a sleep: a
/// one-worker pool whose Eject polls a retrying call through two failed
/// attempts serves another Eject during the pause before the second
/// re-send, which goes no sooner than its base delay, and spawns no spare.
#[test]
fn a_polled_retry_pauses_on_the_timer_not_on_its_worker() {
    let base = Duration::from_millis(50);
    until_undisturbed("a polled retry through two failed attempts", || {
        let kernel = Kernel::builder()
            .scheduler(SchedulerConfig { workers: 1 })
            .build();
        let arrivals = Arc::new(std::sync::Mutex::new(Vec::new()));
        let flaky = Flaky {
            fail: 2,
            arrivals: Arc::clone(&arrivals),
        };
        let flaky = kernel.spawn(Box::new(flaky)).expect("spawn");
        let policy = RetryPolicy::retries(2).base_delay(base).max_delay(base);
        let caller = RetryingCaller { policy, call: None };
        let caller = kernel.spawn(Box::new(caller)).expect("spawn");
        let other = kernel
            .spawn(Box::new(Accumulator { total: 0 }))
            .expect("spawn");
        all_parked(&kernel);
        let go = kernel.invoke(caller, "Go", Value::Uid(flaky));
        while arrivals.lock().unwrap().len() < 2 {
            std::thread::yield_now();
        }
        let asked = Instant::now();
        let answered = kernel.invoke(other, "Add", Value::Int(1)).wait();
        let answered_at = Instant::now();
        assert_eq!(answered, Ok(Value::Int(1)));
        assert_eq!(go.wait(), Ok(Value::Int(5)));
        let counts = kernel.metrics_snapshot().metrics;
        kernel.shutdown();
        let arrivals = arrivals.lock().unwrap().clone();
        assert_eq!(arrivals.len(), 3);
        assert!(
            arrivals[2] - arrivals[1] >= base,
            "the second re-send went {:?} after the first",
            arrivals[2] - arrivals[1]
        );
        // Asked after the pause had ended, or a stall the monitor broke:
        // the run says nothing of the pause.
        let undisturbed = asked < arrivals[1] + base && counts.monitor_rescues == 0;
        if undisturbed {
            assert!(answered_at < arrivals[2], "answered only after the pause");
            assert_eq!(counts.spares_spawned, 0, "{counts:?}");
        }
        undisturbed
    });
}

/// A depth-0 read-only filter whose upstream parks its `Transfer` — a
/// program source whose program has written nothing yet — parks its own
/// reader and leaves the pull out: the reply's settle posts its next step,
/// and no worker waits for it. So the one worker stays free, and the pool
/// spawns no spare to make up for it.
#[test]
fn a_lazy_filter_whose_upstream_defers_costs_no_worker() {
    until_undisturbed("a lazy filter over a silent program", || {
        let kernel = one_worker_kernel();
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let program = move |out: eden::transput::stdio::TransputWriter| {
            if wait.recv().is_ok() {
                out.write(Value::Int(7))
                    .expect("the source takes the record");
            }
        };
        let source = eden::transput::stdio::program_source(program, 1);
        let source = kernel.spawn(Box::new(source)).expect("spawn");
        let filter = Stage::filter(
            Input::pull(source),
            Box::new(eden::transput::transform::Identity),
            Output::Passive,
            StageConfig::batch(1),
        );
        let filter = kernel.spawn(Box::new(filter)).expect("spawn");
        all_parked(&kernel);
        let ask = TransferRequest::primary(1).to_value();
        let read = kernel.invoke(filter, ops::TRANSFER, ask);
        std::thread::sleep(Duration::from_millis(50));
        let Err(read) = read.try_wait() else {
            panic!("answered before the program wrote");
        };
        go.send(()).expect("the program waits");
        let batch = Batch::from_value(read.wait().expect("answered")).expect("a batch");
        assert_eq!(batch.items, [Value::Int(7)]);
        let counts = kernel.metrics_snapshot().metrics;
        kernel.shutdown();
        // A stall the monitor broke may have spawned a spare of its own.
        let undisturbed = counts.monitor_rescues == 0;
        if undisturbed {
            assert_eq!(counts.spares_spawned, 0, "{counts:?}");
        }
        undisturbed
    });
}

/// Its write-side twin: a depth-0 write-only filter whose `Write` finds its
/// downstream pipe full parks its own writer, and answers it only once the
/// pipe has taken the write — after a read made room — without a worker
/// waiting meanwhile or a spare to stand in for one.
#[test]
fn a_rendezvous_filter_whose_downstream_is_full_costs_no_worker() {
    until_undisturbed("a rendezvous filter over a full pipe", || {
        let kernel = one_worker_kernel();
        let depth_1 = StageConfig {
            depth: 1,
            ..StageConfig::batch(1)
        };
        let pipe = Stage::new(Input::Passive, Output::Passive, depth_1);
        let pipe = kernel.spawn(Box::new(pipe)).expect("spawn");
        let write = |to: Uid, i: i64| {
            let w = WriteRequest::more(vec![Value::Int(i)]).to_value();
            kernel.invoke(to, ops::WRITE, w)
        };
        write(pipe, 0).wait().expect("the pipe has room for one");
        let filter = Stage::new(Input::Passive, Output::push(pipe), StageConfig::batch(1));
        let filter = kernel.spawn(Box::new(filter)).expect("spawn");
        all_parked(&kernel);
        let written = write(filter, 1);
        std::thread::sleep(Duration::from_millis(50));
        let Err(written) = written.try_wait() else {
            panic!("answered before the pipe took the write");
        };
        let read = |kernel: &Kernel| {
            let ask = TransferRequest::primary(1).to_value();
            let got = kernel.invoke(pipe, ops::TRANSFER, ask).wait();
            Batch::from_value(got.expect("read"))
                .expect("a batch")
                .items
        };
        assert_eq!(read(&kernel), [Value::Int(0)]);
        assert_eq!(written.wait(), Ok(Value::Unit));
        assert_eq!(read(&kernel), [Value::Int(1)]);
        let counts = kernel.metrics_snapshot().metrics;
        kernel.shutdown();
        let undisturbed = counts.monitor_rescues == 0;
        if undisturbed {
            assert_eq!(counts.spares_spawned, 0, "{counts:?}");
        }
        undisturbed
    });
}
