//! The fault plane end to end: injected failures on the invocation path,
//! retry/backoff recovery through the redesigned `invoke` API, and
//! checkpoint-driven stream recovery in all three disciplines.
//!
//! The paper's §7 recovery story — "an Eject which has Checkpointed ... is
//! automatically reactivated by the Eden kernel when it is next invoked" —
//! is exercised here as a *stream* guarantee: crash any stage of a
//! pipeline, at any record, and the output is byte-identical to the
//! fault-free run.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eden::core::{EdenError, Value};
use eden::filters::{LineNumber, SortLines};
use eden::kernel::{
    EjectBehavior, EjectContext, FaultKind, FaultPlan, FaultRule, Invocation, InvokeOptions,
    Kernel, KernelConfig, ObsConfig, PendingReply, ReplyHandle, RetryPolicy, SchedulerConfig,
};
use eden::transput::recovery::{
    install_recovery, run_recoverable_pipeline, RecoveryDiscipline, TransformRegistry,
};
use eden::transput::transform::{apply_chain_offline, map_fn, Transform};
use proptest::prelude::*;

/// A counter Eject that checkpoints after every bump, so it can be crashed
/// and reactivated without losing its total.
struct DurableCounter {
    total: i64,
}

impl DurableCounter {
    fn factory(state: Option<Value>) -> eden::core::Result<Box<dyn EjectBehavior>> {
        let total = match state {
            Some(v) => v.as_int()?,
            None => 0,
        };
        Ok(Box::new(DurableCounter { total }))
    }
}

impl EjectBehavior for DurableCounter {
    fn type_name(&self) -> &'static str {
        "DurableCounter"
    }

    fn activate(&mut self, ctx: &EjectContext) {
        let _ = ctx.checkpoint(&Value::Int(self.total));
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Add" => {
                self.total += inv.arg.as_int().unwrap_or(0);
                if let Err(e) = ctx.checkpoint(&Value::Int(self.total)) {
                    return reply.reply(Err(e));
                }
                reply.reply(Ok(Value::Int(self.total)));
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

fn retrying() -> InvokeOptions<'static> {
    InvokeOptions::new().retry(
        RetryPolicy::retries(10)
            .base_delay(Duration::from_millis(1))
            .max_delay(Duration::from_millis(10)),
    )
}

#[test]
fn injected_drop_is_survived_by_retry() {
    let kernel = Kernel::new();
    kernel.register_type("DurableCounter", DurableCounter::factory);
    let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();
    // Drop the first two Add invocations; the third delivery succeeds.
    // (Both rules say `nth(1)`: a rule only observes invocations that
    // earlier rules let through, so the second rule's first match is the
    // retry of the first drop.)
    kernel.install_faults(
        FaultPlan::new(7)
            .rule(
                FaultRule::new(FaultKind::Drop)
                    .on_op("Add")
                    .nth(1)
                    .labeled("d1"),
            )
            .rule(
                FaultRule::new(FaultKind::Drop)
                    .on_op("Add")
                    .nth(1)
                    .labeled("d2"),
            ),
    );
    let got = kernel
        .invoke_with(counter, "Add", Value::Int(5), retrying())
        .wait()
        .unwrap();
    assert_eq!(got, Value::Int(5));
    let m = kernel.metrics().snapshot();
    assert_eq!(m.faults_injected, 2);
    assert!(m.retries >= 2, "retries = {}", m.retries);
    kernel.shutdown();
}

#[test]
fn injected_error_without_retry_surfaces() {
    let kernel = Kernel::new();
    kernel.register_type("DurableCounter", DurableCounter::factory);
    let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();
    kernel.install_faults(
        FaultPlan::new(1).rule(
            FaultRule::new(FaultKind::Error)
                .on_op("Add")
                .nth(1)
                .labeled("boom"),
        ),
    );
    let err = kernel
        .invoke(counter, "Add", Value::Int(1))
        .wait()
        .unwrap_err();
    assert_eq!(err, EdenError::FaultInjected("boom".into()));
    assert!(err.is_retryable());
    // The fault plan is exhausted; the next plain invocation goes through.
    assert_eq!(
        kernel.invoke(counter, "Add", Value::Int(2)).wait().unwrap(),
        Value::Int(2)
    );
    kernel.shutdown();
}

#[test]
fn crash_fault_reactivates_target_from_checkpoint_on_retry() {
    let kernel = Kernel::new();
    kernel.register_type("DurableCounter", DurableCounter::factory);
    let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();
    assert_eq!(
        kernel.invoke(counter, "Add", Value::Int(3)).wait().unwrap(),
        Value::Int(3)
    );
    // The next Add crashes the counter; the retry reactivates it from its
    // checkpoint and lands the addition on the preserved total.
    kernel.install_faults(
        FaultPlan::new(3).rule(
            FaultRule::new(FaultKind::CrashTarget)
                .on_op("Add")
                .nth(1)
                .labeled("crash"),
        ),
    );
    let got = kernel
        .invoke_with(counter, "Add", Value::Int(4), retrying())
        .wait()
        .unwrap();
    assert_eq!(got, Value::Int(7), "total must survive the crash");
    let m = kernel.metrics().snapshot();
    assert_eq!(m.crashes, 1);
    assert!(m.reactivations >= 1);
    kernel.shutdown();
}

#[test]
fn deadline_bounds_the_whole_retry_affair() {
    let kernel = Kernel::new();
    kernel.register_type("DurableCounter", DurableCounter::factory);
    let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();
    // Every Add is dropped; a 40ms deadline must cut the retrying short
    // even though the policy would allow many more attempts.
    kernel.install_faults(
        FaultPlan::new(9).rule(FaultRule::new(FaultKind::Drop).on_op("Add").labeled("all")),
    );
    let started = std::time::Instant::now();
    let err = kernel
        .invoke_with(
            counter,
            "Add",
            Value::Int(1),
            InvokeOptions::new()
                .deadline(Duration::from_millis(40))
                .retry(RetryPolicy::retries(1000).base_delay(Duration::from_millis(2))),
        )
        .wait()
        .unwrap_err();
    assert_eq!(err, EdenError::Timeout);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline did not bound the retries"
    );
    kernel.shutdown();
}

/// Drops the first `n` Add invocations (see `injected_drop_is_survived_by_retry`
/// for why every rule says `nth(1)`).
fn drop_first_adds(n: usize) -> FaultPlan {
    (0..n).fold(FaultPlan::new(11), |plan, _| {
        plan.rule(FaultRule::new(FaultKind::Drop).on_op("Add").nth(1))
    })
}

/// Calls `Add(5)` on the counter named by its argument from inside an
/// Eject, by `begin_call` and `poll_reply`, under the policy it was built
/// with; defers its reply, polls again on each internal event, and replies
/// with the call's outcome once it is in.
struct AddCaller {
    policy: RetryPolicy,
    call: Option<(PendingReply, ReplyHandle)>,
}

impl AddCaller {
    fn new(policy: RetryPolicy) -> Box<AddCaller> {
        Box::new(AddCaller { policy, call: None })
    }

    fn poll(&mut self, ctx: &EjectContext) {
        if let Some((mut pending, reply)) = self.call.take() {
            match ctx.poll_reply(&mut pending) {
                Some(outcome) => reply.reply(outcome),
                None => self.call = Some((pending, reply)),
            }
        }
    }
}

impl EjectBehavior for AddCaller {
    fn type_name(&self) -> &'static str {
        "AddCaller"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        let counter = inv.arg.as_uid().expect("a counter's uid");
        let opts = InvokeOptions::new().retry(self.policy);
        let pending = ctx.begin_call(counter, "Add", Value::Int(5), opts);
        self.call = Some((pending, reply));
        self.poll(ctx);
    }

    fn internal(&mut self, ctx: &EjectContext, _event: Value) {
        self.poll(ctx);
    }
}

#[test]
fn the_first_resend_goes_at_once() {
    // A 2 s base delay that the first re-send does not pay: a dropped first
    // attempt is recovered by its re-send alone, from a thread and from an
    // Eject's call alike.
    let policy = RetryPolicy::retries(2)
        .base_delay(Duration::from_secs(2))
        .max_delay(Duration::from_secs(2));
    let kernel = Kernel::new();
    let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();
    let caller = kernel.spawn(AddCaller::new(policy)).unwrap();

    kernel.install_faults(drop_first_adds(1));
    let started = Instant::now();
    let got = kernel
        .invoke_with(
            counter,
            "Add",
            Value::Int(5),
            InvokeOptions::new().retry(policy),
        )
        .wait();
    assert_eq!(got, Ok(Value::Int(5)));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "wait() paused before its first re-send: {:?}",
        started.elapsed()
    );

    kernel.install_faults(drop_first_adds(1));
    let started = Instant::now();
    let got = kernel.invoke(caller, "Go", Value::Uid(counter)).wait();
    assert_eq!(got, Ok(Value::Int(10)));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "poll_reply paused before its first re-send: {:?}",
        started.elapsed()
    );
    assert_eq!(kernel.metrics().snapshot().retries, 2);
    kernel.shutdown();
}

#[test]
fn the_second_resend_waits_its_base_delay() {
    let base = Duration::from_millis(250);
    let kernel = Kernel::new();
    let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();
    kernel.install_faults(drop_first_adds(2));
    let started = Instant::now();
    let policy = RetryPolicy::retries(2).base_delay(base).max_delay(base);
    let got = kernel
        .invoke_with(
            counter,
            "Add",
            Value::Int(5),
            InvokeOptions::new().retry(policy),
        )
        .wait();
    assert_eq!(got, Ok(Value::Int(5)));
    assert!(started.elapsed() >= base, "{:?}", started.elapsed());
    assert_eq!(kernel.metrics().snapshot().retries, 2);
    kernel.shutdown();
}

#[test]
fn try_wait_pauses_before_the_second_resend_as_wait_does() {
    let base = Duration::from_millis(200);
    let kernel = Kernel::new();
    let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();
    kernel.install_faults(drop_first_adds(2));
    let policy = RetryPolicy::retries(2).base_delay(base).max_delay(base);
    let started = Instant::now();
    let mut pending = kernel.invoke_with(
        counter,
        "Add",
        Value::Int(5),
        InvokeOptions::new().retry(policy),
    );
    let got = loop {
        match pending.try_wait() {
            Ok(got) => break got,
            Err(again) => pending = again,
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(got, Ok(Value::Int(5)));
    assert!(
        started.elapsed() >= base,
        "the second re-send went before its base delay: {:?}",
        started.elapsed()
    );
    assert_eq!(kernel.metrics().snapshot().retries, 2);
    kernel.shutdown();
}

/// Keeps every reply handle it is given, answering none.
struct ParksForever {
    parked: Vec<ReplyHandle>,
}

impl EjectBehavior for ParksForever {
    fn type_name(&self) -> &'static str {
        "ParksForever"
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        self.parked.push(reply);
    }
}

/// Polls one retrying call under a deadline to the Eject its `Go` names,
/// and answers `Ping` meanwhile.
struct DeadlinePoller {
    call: Option<(PendingReply, ReplyHandle)>,
}

impl EjectBehavior for DeadlinePoller {
    fn type_name(&self) -> &'static str {
        "DeadlinePoller"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        if inv.op.as_str() == "Ping" {
            return reply.reply(Ok(Value::Unit));
        }
        let target = inv.arg.as_uid().expect("a target's uid");
        let opts = InvokeOptions::new()
            .deadline(Duration::from_millis(300))
            .retry(RetryPolicy::retries(3));
        self.call = Some((ctx.begin_call(target, "Add", Value::Int(1), opts), reply));
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

#[test]
fn a_polled_retrying_call_resolves_timeout_at_its_deadline() {
    let kernel = Kernel::builder()
        .scheduler(SchedulerConfig { workers: 1 })
        .build();
    let callee = kernel
        .spawn(Box::new(ParksForever { parked: Vec::new() }))
        .unwrap();
    let poller = kernel
        .spawn(Box::new(DeadlinePoller { call: None }))
        .unwrap();
    let started = Instant::now();
    let go = kernel.invoke(poller, "Go", Value::Uid(callee));
    // The poller's handler returned with its reply deferred: it answers
    // while its call is out.
    assert_eq!(
        kernel.invoke(poller, "Ping", Value::Unit).wait(),
        Ok(Value::Unit)
    );
    let go = go.try_wait().expect_err("answered before the deadline");
    assert_eq!(go.wait(), Err(EdenError::Timeout));
    let took = started.elapsed();
    assert!(took >= Duration::from_millis(300), "{took:?}");
    assert!(took < Duration::from_secs(10), "{took:?}");
    let m = kernel.metrics().snapshot();
    // The call failed, and so did the `Go` it answers.
    assert_eq!((m.retries, m.fatal_failures), (0, 2));
    kernel.shutdown();
}

/// Answers every invocation with the retryable `Timeout`, noting when each
/// arrived.
struct AlwaysTimesOut {
    arrivals: Arc<Mutex<Vec<Instant>>>,
}

impl EjectBehavior for AlwaysTimesOut {
    fn type_name(&self) -> &'static str {
        "AlwaysTimesOut"
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        self.arrivals.lock().unwrap().push(Instant::now());
        reply.reply(Err(EdenError::Timeout));
    }
}

#[test]
fn no_resend_is_sent_that_the_deadline_leaves_no_time_to_wait_for() {
    let deadline = Duration::from_millis(100);
    let arrivals = Arc::new(Mutex::new(Vec::new()));
    let kernel = Kernel::new();
    let callee = kernel
        .spawn(Box::new(AlwaysTimesOut {
            arrivals: Arc::clone(&arrivals),
        }))
        .unwrap();
    let opts = InvokeOptions::new()
        .deadline(deadline)
        .retry(RetryPolicy::retries(1000).base_delay(Duration::from_millis(10)));
    let start = Instant::now();
    let got = kernel.invoke_with(callee, "Poke", Value::Unit, opts).wait();
    assert_eq!(got, Err(EdenError::Timeout));
    // A re-send sent at the deadline would still be handled: give it time
    // to arrive.
    std::thread::sleep(Duration::from_millis(100));
    let arrivals = arrivals.lock().unwrap().clone();
    let late: Vec<_> = arrivals
        .iter()
        .map(|at| at.duration_since(start))
        .filter(|since| *since >= deadline)
        .collect();
    assert!(
        late.is_empty(),
        "attempts arrived past the deadline: {late:?}"
    );
    assert!(arrivals.len() >= 2, "a timed-out attempt is re-sent");
    assert_eq!(
        kernel.metrics().snapshot().retries,
        arrivals.len() as u64 - 1,
        "every re-send counted arrived"
    );
    kernel.shutdown();
}

#[test]
fn immune_invocations_bypass_the_fault_plan() {
    let kernel = Kernel::new();
    kernel.register_type("DurableCounter", DurableCounter::factory);
    let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();
    kernel.install_faults(
        FaultPlan::new(5).rule(FaultRule::new(FaultKind::Error).labeled("everything")),
    );
    let got = kernel
        .invoke_with(counter, "Add", Value::Int(1), InvokeOptions::new().immune())
        .wait()
        .unwrap();
    assert_eq!(got, Value::Int(1));
    assert_eq!(kernel.metrics().snapshot().faults_injected, 0);
    kernel.shutdown();
}

#[test]
fn fault_schedule_replays_byte_for_byte() {
    // The same seed must decide the same fates in the same order —
    // determinism is what makes a chaos run a reproducible experiment.
    let run = |seed: u64| -> Vec<bool> {
        let kernel = Kernel::new();
        kernel.register_type("DurableCounter", DurableCounter::factory);
        let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();
        kernel.install_faults(
            FaultPlan::new(seed).rule(
                FaultRule::new(FaultKind::Error)
                    .on_op("Add")
                    .with_probability(0.4),
            ),
        );
        let outcomes = (0..40)
            .map(|_| kernel.invoke(counter, "Add", Value::Int(1)).wait().is_ok())
            .collect();
        kernel.shutdown();
        outcomes
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds should differ somewhere");
}

// ---------------------------------------------------------------------------
// Checkpoint-driven stream recovery.
// ---------------------------------------------------------------------------

fn registry() -> TransformRegistry {
    TransformRegistry::new(&[
        ("double", || {
            Box::new(map_fn("double", |v| {
                Value::Int(v.as_int().unwrap_or(0) * 2)
            }))
        }),
        ("inc", || {
            Box::new(map_fn("inc", |v| Value::Int(v.as_int().unwrap_or(0) + 1)))
        }),
    ])
}

fn expected(n: i64) -> Vec<Value> {
    (0..n).map(|i| Value::Int(i * 2 + 1)).collect()
}

const DISCIPLINES: [RecoveryDiscipline; 3] = [
    RecoveryDiscipline::ReadOnly,
    RecoveryDiscipline::WriteOnly,
    RecoveryDiscipline::Conventional,
];

#[test]
fn recoverable_pipelines_run_fault_free() {
    for discipline in DISCIPLINES {
        let kernel = Kernel::new();
        let reg = registry();
        install_recovery(&kernel, &reg);
        let items: Vec<Value> = (0..40).map(Value::Int).collect();
        let run = run_recoverable_pipeline(
            &kernel,
            discipline,
            items,
            &["double", "inc"],
            &reg,
            7,
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(run.output, expected(40), "{discipline:?}");
        kernel.shutdown();
    }
}

#[test]
fn recoverable_runs_keep_their_invocation_and_entity_counts() {
    let run_on_fresh_kernel = |discipline, chain: &[&str]| {
        let kernel = Kernel::new();
        let reg = registry();
        install_recovery(&kernel, &reg);
        let items: Vec<Value> = (0..40).map(Value::Int).collect();
        let timeout = Duration::from_secs(30);
        let run =
            run_recoverable_pipeline(&kernel, discipline, items, chain, &reg, 7, timeout).unwrap();
        let invocations = kernel.metrics().snapshot().invocations;
        kernel.shutdown();
        (run, invocations)
    };
    // A read-only run has no control-plane traffic, so fault-free its
    // invocation count is exact: 40 records at batch 7 are 6 batches, and
    // each crosses n+1 hops (the run, `inc`, `double`, source).
    let (run, invocations) = run_on_fresh_kernel(RecoveryDiscipline::ReadOnly, &["double", "inc"]);
    assert_eq!(run.output, expected(40));
    assert_eq!(invocations, 3 * 6);
    // Entities for n transforms: source and filters (the run is the sink,
    // no Eject); those and an acceptor; source, n pumps, the n-1 buffers
    // between them, acceptor.
    let chain = ["double", "inc", "double"];
    for n in 1..=chain.len() {
        let stages = |discipline| run_on_fresh_kernel(discipline, &chain[..n]).0.stages.len();
        assert_eq!(stages(RecoveryDiscipline::ReadOnly), n + 1);
        assert_eq!(stages(RecoveryDiscipline::WriteOnly), n + 2);
        assert_eq!(stages(RecoveryDiscipline::Conventional), 2 * n + 1);
    }
}

#[test]
fn a_run_ends_on_one_parked_ask_and_one_read() {
    // Where the chain ends in an acceptor, the run asks it to `Close` once,
    // parked until the stream has ended there, then reads it once: two
    // invocations beside the stream's own, however long the stream takes.
    // 40 records at batch 7 are 6 batches: write-only pushes each across 3
    // hops, conventional moves each by 4 (2n).
    for (discipline, stream) in [
        (RecoveryDiscipline::WriteOnly, 3 * 6),
        (RecoveryDiscipline::Conventional, 4 * 6),
    ] {
        let kernel = Kernel::new();
        let reg = registry();
        install_recovery(&kernel, &reg);
        let items: Vec<Value> = (0..40).map(Value::Int).collect();
        let timeout = Duration::from_secs(30);
        let chain = &["double", "inc"];
        let run = run_recoverable_pipeline(&kernel, discipline, items, chain, &reg, 7, timeout);
        assert_eq!(run.unwrap().output, expected(40), "{discipline:?}");
        let invocations = kernel.metrics().snapshot().invocations;
        assert_eq!(invocations, stream + 2, "{discipline:?}");
        kernel.shutdown();
    }
}

/// One fault-free run of a recoverable pipeline over 40 records: its hops
/// from one stage to the next (every `Write`, and every `Transfer` but the
/// run's to the tail), and how many of all its invocations ran inline.
fn hops_and_inline_handoffs(discipline: RecoveryDiscipline) -> (u64, u64) {
    let kernel = Kernel::builder().observability(ObsConfig::full()).build();
    let reg = registry();
    install_recovery(&kernel, &reg);
    let items: Vec<Value> = (0..40).map(Value::Int).collect();
    let timeout = Duration::from_secs(30);
    let run = run_recoverable_pipeline(
        &kernel,
        discipline,
        items,
        &["double", "inc"],
        &reg,
        7,
        timeout,
    )
    .unwrap();
    assert_eq!(run.output, expected(40), "{discipline:?}");
    assert_eq!(kernel.spans_dropped(), 0, "{discipline:?}");
    let tail = *run.stages.last().expect("stages");
    let hops = kernel
        .spans()
        .iter()
        .filter(|span| match span.op.as_str() {
            "Write" => true,
            "Transfer" => span.target != tail,
            _ => false,
        })
        .count() as u64;
    let inline = kernel.metrics_snapshot().sched.inline_handoffs;
    kernel.shutdown();
    (hops, inline)
}

#[test]
fn recoverable_hops_between_stages_are_inline_calls() {
    // A retained stage calls its peers as a volatile one does, under a retry
    // policy, so a hop that finds its callee parked runs it on the caller's
    // stack. The run's own invocations — the read-only tail's `Transfer`s,
    // the acceptor's `Close` and `ReadAll` — are sends it then waits for,
    // never inline. A hop finds its callee busy only when something else
    // got there first: the callee's own first activation on another worker. That run is correct, but says nothing of
    // the call path, and is repeated.
    for discipline in [RecoveryDiscipline::ReadOnly, RecoveryDiscipline::WriteOnly] {
        let undisturbed = (0..50).any(|_| {
            let (hops, inline) = hops_and_inline_handoffs(discipline);
            assert!(
                hops >= 12 && inline <= hops,
                "{discipline:?}: {inline} of {hops}"
            );
            inline == hops
        });
        assert!(
            undisturbed,
            "{discipline:?}: no run had all its hops inline"
        );
    }
}

#[test]
fn streams_recover_from_injected_crashes() {
    // A 2% crash-fault rate on the stream ops: every discipline must still
    // deliver the exact output — nothing lost, nothing duplicated — both
    // over the default store and over the durable log, where a
    // reactivation reads its checkpoint back through the segment files.
    use eden::core::MemFs;
    use eden::kernel::{DurableConfig, FsyncPolicy, StableStore};

    for (discipline, durable) in DISCIPLINES
        .into_iter()
        .flat_map(|d| [(d, false), (d, true)])
    {
        let kernel = if durable {
            let cfg = DurableConfig::with_fsync(FsyncPolicy::EveryN(8));
            let store = StableStore::durable_on(MemFs::new(), cfg).unwrap();
            Kernel::builder().stable_store(store).build()
        } else {
            Kernel::new()
        };
        let arm = format!("{discipline:?}, durable: {durable}");
        let reg = registry();
        install_recovery(&kernel, &reg);
        kernel.install_faults(
            FaultPlan::new(0xede2 + discipline as u64)
                .rule(
                    FaultRule::new(FaultKind::CrashTarget)
                        .on_op("Transfer")
                        .with_probability(0.02),
                )
                .rule(
                    FaultRule::new(FaultKind::CrashTarget)
                        .on_op("Write")
                        .with_probability(0.02),
                )
                .rule(
                    FaultRule::new(FaultKind::Drop)
                        .on_op("Transfer")
                        .with_probability(0.02),
                )
                .rule(
                    FaultRule::new(FaultKind::Drop)
                        .on_op("Write")
                        .with_probability(0.02),
                ),
        );
        let items: Vec<Value> = (0..60).map(Value::Int).collect();
        let run = run_recoverable_pipeline(
            &kernel,
            discipline,
            items,
            &["double", "inc"],
            &reg,
            5,
            Duration::from_secs(60),
        )
        .unwrap();
        assert_eq!(run.output, expected(60), "{arm}");
        let m = kernel.metrics().snapshot();
        if m.crashes > 0 {
            assert!(m.reactivations > 0, "{arm}: crashes but no reactivations");
            assert!(m.recovered_streams > 0, "{arm}: no stream recovered");
        }
        kernel.shutdown();
    }
}

/// Run `chain` over `items` once per stage and discipline, crashing that
/// stage directly (no fault plan) once `after` invocations have been made
/// — including the active pumps that receive no stream invocations and are
/// brought back by the kernel as they crash.
fn crash_each_stage_in_turn(
    reg: &TransformRegistry,
    chain: &'static [&'static str],
    items: &[Value],
    after: u64,
    expected: &[Value],
) {
    let run = |kernel: &Kernel, discipline| {
        let (kernel, reg, items) = (kernel.clone(), reg.clone(), items.to_vec());
        let timeout = Duration::from_secs(60);
        std::thread::spawn(move || {
            run_recoverable_pipeline(&kernel, discipline, items, chain, &reg, 4, timeout)
        })
    };
    for discipline in DISCIPLINES {
        // First run fault-free to learn the stage list length.
        let probe = {
            let kernel = Kernel::new();
            install_recovery(&kernel, reg);
            let run = run(&kernel, discipline).join().unwrap().unwrap();
            kernel.shutdown();
            run.stages.len()
        };
        for stage_idx in 0..probe {
            let kernel = Kernel::new();
            install_recovery(&kernel, reg);
            // Run the pipeline on a helper thread; crash the chosen stage
            // from here once it exists.
            let runner = run(&kernel, discipline);
            // Wait until the pipeline's stages exist (they all spawn before
            // any data moves) and the stream is `after` invocations in,
            // then crash whatever stage holds `stage_idx` in UID order of
            // creation. Polling instead of a fixed sleep keeps the crash
            // aimed mid-stream on fast machines and still lands it on slow
            // ones.
            let spawn_deadline = std::time::Instant::now() + Duration::from_secs(2);
            while (kernel.list_ejects().len() < probe
                || kernel.metrics().snapshot().invocations < after)
                && std::time::Instant::now() < spawn_deadline
            {
                std::thread::yield_now();
            }
            let mut ejects = kernel.list_ejects();
            ejects.sort_by_key(|info| info.uid.seq());
            if let Some(info) = ejects.get(stage_idx.min(ejects.len().saturating_sub(1))) {
                let _ = kernel.crash(info.uid);
            }
            let run = runner.join().unwrap().unwrap();
            assert_eq!(run.output, expected, "{discipline:?} stage {stage_idx}");
            kernel.shutdown();
        }
    }
}

#[test]
fn direct_crash_of_every_stage_recovers() {
    let items: Vec<Value> = (0..30).map(Value::Int).collect();
    crash_each_stage_in_turn(&registry(), &["double", "inc"], &items, 0, &expected(30));
}

#[test]
fn acceptor_crashed_behind_its_journal_returns_everything_once() {
    // The acceptor holds the whole output and journals each `Write`'s
    // records beside an early checkpoint. Crashed with entries behind it,
    // it comes back as checkpoint plus journal, and the run's `ReadAll` —
    // which asks from where its own copy ends — misses and repeats nothing.
    let run = |kernel: &Kernel, discipline, n: i64| {
        let (kernel, reg) = (kernel.clone(), registry());
        install_recovery(&kernel, &reg);
        let items: Vec<Value> = (0..n).map(Value::Int).collect();
        let timeout = Duration::from_secs(60);
        std::thread::spawn(move || {
            run_recoverable_pipeline(
                &kernel,
                discipline,
                items,
                &["double", "inc"],
                &reg,
                4,
                timeout,
            )
        })
    };
    let in_birth_order = |kernel: &Kernel| {
        let mut uids: Vec<_> = kernel.list_ejects().iter().map(|info| info.uid).collect();
        uids.sort_by_key(|uid| uid.seq());
        uids
    };
    for discipline in [
        RecoveryDiscipline::WriteOnly,
        RecoveryDiscipline::Conventional,
    ] {
        // A fault-free run says how many stages there are and which of
        // them, in order of birth, is the acceptor: the last of the chain.
        let kernel = Kernel::new();
        let probe = run(&kernel, discipline, 8).join().unwrap().unwrap();
        let acceptor = *probe.stages.last().unwrap();
        let born = in_birth_order(&kernel);
        let rank = born.iter().position(|uid| *uid == acceptor).unwrap();
        kernel.shutdown();

        let kernel = Kernel::new();
        let runner = run(&kernel, discipline, 2_000);
        let store = kernel.stable_store();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let acceptor = loop {
            assert!(
                std::time::Instant::now() < deadline,
                "{discipline:?}: no journal grew"
            );
            // Every stage is born before any record moves.
            let stages = in_birth_order(&kernel);
            let journaled = |uid| store.load(uid).map_or(0, |rec| rec.journal.len());
            if stages.len() == born.len() && journaled(stages[rank]) >= 3 {
                break stages[rank];
            }
            std::thread::yield_now();
        };
        kernel.crash(acceptor).unwrap();
        let run = runner.join().unwrap().unwrap();
        assert_eq!(
            Some(&acceptor),
            run.stages.last(),
            "{discipline:?}: crashed the acceptor"
        );
        assert_eq!(run.output, expected(2_000), "{discipline:?}");
        let m = kernel.metrics().snapshot();
        assert!(
            m.reactivations >= 1 && m.recovered_streams >= 1,
            "{discipline:?}: {m:?}"
        );
        kernel.shutdown();
    }
}

/// Transforms whose next output depends on everything they have seen: the
/// numbering a counter, the sort holding the whole stream until it ends.
const STATEFUL: &[&str] = &["line-number", "sort"];

fn stateful_registry() -> TransformRegistry {
    TransformRegistry::new(&[
        ("line-number", || Box::new(LineNumber::new())),
        ("sort", || Box::new(SortLines::new())),
    ])
}

/// 200 lines, and what [`STATEFUL`] makes of them run in-process, no kernel
/// anywhere near.
fn stateful_case() -> (Vec<Value>, Vec<Value>) {
    let items: Vec<Value> = (0..200)
        .map(|i| Value::str(format!("record {i}")))
        .collect();
    let mut chain: Vec<Box<dyn Transform>> =
        vec![Box::new(LineNumber::new()), Box::new(SortLines::new())];
    let expected = apply_chain_offline(&mut chain, items.clone());
    (items, expected)
}

#[test]
fn stateful_chain_recovers_exactly_once_under_injected_crashes() {
    // Heavy fire: three in ten stream operations crash their target or are
    // lost, so each stage comes back from its checkpoint many times over.
    // A transform rebuilt without its state renumbers from 1, or sorts
    // only what it has seen since.
    let (items, expected) = stateful_case();
    for discipline in DISCIPLINES {
        let kernel = Kernel::new();
        let reg = stateful_registry();
        install_recovery(&kernel, &reg);
        let mut plan = FaultPlan::new(0x57a7e + discipline as u64);
        for op in ["Transfer", "Write"] {
            for kind in [FaultKind::CrashTarget, FaultKind::Drop] {
                plan = plan.rule(FaultRule::new(kind).on_op(op).with_probability(0.15));
            }
        }
        kernel.install_faults(plan);
        let timeout = Duration::from_secs(60);
        let run = run_recoverable_pipeline(
            &kernel,
            discipline,
            items.clone(),
            STATEFUL,
            &reg,
            5,
            timeout,
        )
        .unwrap();
        assert_eq!(run.output, expected, "{discipline:?}");
        let m = kernel.metrics().snapshot();
        assert!(
            m.crashes > 0 && m.recovered_streams > 0,
            "{discipline:?}: {m:?}"
        );
        kernel.shutdown();
    }
}

#[test]
fn stateful_chain_recovers_from_a_direct_crash_of_every_stage() {
    let (items, expected) = stateful_case();
    crash_each_stage_in_turn(&stateful_registry(), STATEFUL, &items, 30, &expected);
}

#[test]
fn zero_record_stream_survives_crash_and_reactivation() {
    // §7 edge case: a stream with no records still runs the full
    // handshake — stages spawn, checkpoint their empty state, and report
    // end-of-stream. Crashing the very first stream operation must
    // reactivate from that empty checkpoint and terminate cleanly rather
    // than hang waiting for a record that will never arrive.
    for discipline in DISCIPLINES {
        let kernel = Kernel::new();
        let reg = registry();
        install_recovery(&kernel, &reg);
        kernel.install_faults(
            FaultPlan::new(0x0e0e + discipline as u64)
                .rule(
                    FaultRule::new(FaultKind::CrashTarget)
                        .on_op("Transfer")
                        .nth(1),
                )
                .rule(FaultRule::new(FaultKind::CrashTarget).on_op("Write").nth(1)),
        );
        let run = run_recoverable_pipeline(
            &kernel,
            discipline,
            Vec::new(),
            &["double", "inc"],
            &reg,
            3,
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(run.output, Vec::<Value>::new(), "{discipline:?}");
        let m = kernel.metrics().snapshot();
        if m.crashes > 0 {
            assert!(
                m.reactivations > 0,
                "{discipline:?}: zero-record crash without reactivation"
            );
        }
        kernel.shutdown();
    }
}

#[test]
fn an_end_of_stream_whose_write_fails_is_written_again() {
    // One drop more than the 24 retries a stream invocation travels with:
    // the `Write` that ends a zero-record stream fails outright. The stage
    // that sent it must send it again — not finish as though it had been
    // acknowledged, leaving its acceptor waiting for an end never sent.
    for discipline in [
        RecoveryDiscipline::WriteOnly,
        RecoveryDiscipline::Conventional,
    ] {
        let kernel = Kernel::new();
        let reg = registry();
        install_recovery(&kernel, &reg);
        let drop_next = || FaultRule::new(FaultKind::Drop).on_op("Write").nth(1);
        kernel.install_faults((0..25).fold(FaultPlan::new(0), |plan, _| plan.rule(drop_next())));
        let run = run_recoverable_pipeline(
            &kernel,
            discipline,
            Vec::new(),
            &["double", "inc"],
            &reg,
            3,
            Duration::from_secs(10),
        );
        assert_eq!(run.map(|run| run.output), Ok(Vec::new()), "{discipline:?}");
        assert_eq!(
            kernel.metrics().snapshot().faults_injected,
            25,
            "{discipline:?}"
        );
        kernel.shutdown();
    }
}

#[test]
fn crash_exactly_at_checkpoint_boundary_neither_loses_nor_repeats() {
    // The subtle off-by-one: with checkpoint_every = 5, the crash lands on
    // the operation right at a checkpoint boundary, so the reactivated
    // stage resumes with its checkpointed position equal to everything it
    // has consumed (seq == pos). Resuming must replay nothing and skip
    // nothing — a <= versus < in the resume comparison would double or
    // drop the boundary record.
    const EVERY: u64 = 5;
    for discipline in DISCIPLINES {
        for boundary in [EVERY, 2 * EVERY, 4 * EVERY] {
            for op in ["Transfer", "Write"] {
                let kernel = Kernel::new();
                let reg = registry();
                install_recovery(&kernel, &reg);
                kernel.install_faults(
                    FaultPlan::new(0xb0b + boundary).rule(
                        FaultRule::new(FaultKind::CrashTarget)
                            .on_op(op)
                            .nth(boundary)
                            .labeled("boundary-crash"),
                    ),
                );
                let items: Vec<Value> = (0..30).map(Value::Int).collect();
                let run = run_recoverable_pipeline(
                    &kernel,
                    discipline,
                    items,
                    &["double", "inc"],
                    &reg,
                    EVERY as usize,
                    Duration::from_secs(60),
                )
                .unwrap();
                assert_eq!(
                    run.output,
                    expected(30),
                    "{discipline:?} {op} crash at checkpoint boundary {boundary}"
                );
                kernel.shutdown();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// The acceptance property: a single crash injected at a random record
    /// index, of a random stage, in a depth-3 pipeline, in any discipline,
    /// yields output identical to the fault-free run.
    #[test]
    fn single_random_crash_never_corrupts_the_stream(
        discipline_idx in 0usize..3,
        crash_nth in 1u64..40,
        crash_op_idx in 0usize..2,
        seed in any::<u64>(),
        len in 20i64..50,
    ) {
        let discipline = DISCIPLINES[discipline_idx];
        let crash_op = ["Transfer", "Write"][crash_op_idx];
        let kernel = Kernel::new();
        let reg = registry();
        install_recovery(&kernel, &reg);
        kernel.install_faults(FaultPlan::new(seed).rule(
            FaultRule::new(FaultKind::CrashTarget).on_op(crash_op).nth(crash_nth).labeled("the-crash"),
        ));
        let items: Vec<Value> = (0..len).map(Value::Int).collect();
        let run = run_recoverable_pipeline(
            &kernel,
            discipline,
            items,
            &["double", "inc"],
            &reg,
            3,
            Duration::from_secs(60),
        ).unwrap();
        prop_assert_eq!(run.output, expected(len));
        kernel.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Process-restart-shaped recovery: the durable stable store survives losing
// the whole kernel, not just one stage.
// ---------------------------------------------------------------------------

/// Crash the *kernel*, not a stage: run a write-only pipeline over a
/// durable log on a MemFs, tear the whole kernel down mid-stream, rebuild
/// a fresh kernel over the replayed log, and resume by invoking the old
/// UIDs. Exactly-once must hold across the restart.
#[test]
fn whole_kernel_restart_resumes_from_the_durable_log() {
    use eden::core::MemFs;
    use eden::kernel::{DurableConfig, FsyncPolicy, Kernel, StableStore};
    use eden::transput::recovery::resume_recoverable_pipeline;

    let fs = MemFs::new();
    let cfg = DurableConfig {
        auto_compact: false, // keep the first life's log byte-stable
        ..DurableConfig::with_fsync(FsyncPolicy::Always)
    };

    // First life: start the stream, let some (not all) records land.
    let stages = {
        let store = StableStore::durable_on(std::sync::Arc::clone(&fs), cfg).unwrap();
        let kernel = Kernel::builder().stable_store(store).build();
        let reg = registry();
        install_recovery(&kernel, &reg);
        let items: Vec<Value> = (0..50).map(Value::Int).collect();
        let k2 = kernel.clone();
        let reg2 = reg.clone();
        let runner = std::thread::spawn(move || {
            run_recoverable_pipeline(
                &k2,
                RecoveryDiscipline::WriteOnly,
                items,
                &["double", "inc"],
                &reg2,
                4,
                Duration::from_secs(60),
            )
        });
        // Wait until at least one batch has been durably accepted, then
        // pull the plug on the whole kernel. `shutdown` stops the pump
        // worker between acknowledged writes, which is exactly the state a
        // fail-stop process loss leaves behind.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while kernel.stable_store().len() < 4 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let stages: Vec<_> = kernel
            .list_ejects()
            .into_iter()
            .map(|info| info.uid)
            .collect();
        assert_eq!(stages.len(), 4, "source, two filters, acceptor");
        kernel.shutdown();
        let _ = runner.join().unwrap(); // first life ends however far it got
        stages
    };

    // Second life: a brand-new kernel over the same files. Building the
    // store replays the log; building the kernel seeds passive slots for
    // every checkpointed UID; resuming just invokes them. Spans are on so
    // that a resume that fails says what the kernel last did.
    let store = StableStore::durable_on(std::sync::Arc::clone(&fs), cfg).unwrap();
    let kernel = Kernel::builder()
        .stable_store(store)
        .observability(eden::kernel::ObsConfig::full())
        .build();
    let reg = registry();
    install_recovery(&kernel, &reg);
    let mut ordered = stages.clone();
    ordered.sort_by_key(eden::core::Uid::seq);
    // The write-only spawn order is acceptor, filters (tail→head), source;
    // resume wants head-first with the acceptor last — reverse creation.
    ordered.reverse();
    let output = resume_recoverable_pipeline(&kernel, &ordered, Duration::from_secs(60))
        .unwrap_or_else(|err| {
            let events = eden::kernel::render_events(&kernel.spans(), &kernel.lifecycle().0);
            let snapshot = kernel.metrics_snapshot();
            panic!(
                "second life failed to resume: {err}\nsched: {:?}\nmailboxes: {:?}\nlast events:\n{}",
                snapshot.sched,
                snapshot.mailbox,
                events[events.len().saturating_sub(64)..].join("\n"),
            )
        });
    assert_eq!(output, expected(50), "restart must neither lose nor repeat");
    let m = kernel.metrics().snapshot();
    assert!(
        m.reactivations >= 1,
        "resume must reactivate stages from the replayed log"
    );
    kernel.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Torn-write recovery: store a known history of checkpoints and journal
    /// entries into the durable log, then truncate the newest segment at an
    /// arbitrary byte offset (a crash mid-append tears at most one frame).
    /// Replay must recover a valid *prefix* of the history — every surviving
    /// record a checkpoint byte-exact at some version it actually had and
    /// exactly the entries written after it, in order and without a gap,
    /// never a corrupt or invented one — and the reopened log must itself
    /// reopen cleanly.
    #[test]
    fn torn_segment_tail_recovers_a_valid_prefix(
        tear_back in 1usize..64,
        uids_n in 1usize..5,
        writes in 4usize..24,
    ) {
        use eden::core::MemFs;
        use eden::kernel::{DurableConfig, DurableLog, FsyncPolicy, StableBackend};

        let fs = MemFs::new();
        let cfg = DurableConfig {
            fsync: FsyncPolicy::Always,
            auto_compact: false,
            ..DurableConfig::default()
        };
        let uids: Vec<eden::core::Uid> =
            (0..uids_n).map(|_| eden::core::Uid::fresh()).collect();
        // History: every (uid, version) -> (whether a checkpoint, payload)
        // ever written.
        let mut history =
            std::collections::HashMap::<(eden::core::Uid, u64), (bool, Vec<u8>)>::new();
        {
            let log = DurableLog::open(std::sync::Arc::clone(&fs), cfg).unwrap();
            for i in 0..writes {
                let uid = uids[i % uids.len()];
                let payload = vec![(i % 251) as u8; 3 + i % 9];
                // A checkpoint first, then two entries for every one more.
                let whole = !log.contains(uid) || (i / uids.len()).is_multiple_of(3);
                match whole {
                    true => log.store(uid, "T", payload.clone().into()).unwrap(),
                    false => log.append(uid, payload.clone().into()).unwrap(),
                }
                let v = log.load(uid).unwrap().version;
                history.insert((uid, v), (whole, payload));
            }
        }
        // Tear: cut the newest segment `tear_back` bytes from its end
        // (clamped to leave the file non-negative).
        let seg = fs
            .list()
            .into_iter()
            .rfind(|n| n.starts_with("seg-"))
            .unwrap();
        let bytes = fs.read(&seg).unwrap();
        let keep = bytes.len().saturating_sub(tear_back);
        fs.write(&seg, &bytes[..keep]).unwrap();

        let log = DurableLog::open(std::sync::Arc::clone(&fs), cfg).unwrap();
        for (uid, rec) in log.iter() {
            let base = rec.version - rec.journal.len() as u64;
            let written = std::iter::once(&rec.bytes).chain(&rec.journal);
            for (version, bytes) in (base..).zip(written) {
                let (whole, expect) = history
                    .get(&(uid, version))
                    .expect("recovered a (uid, version) never written");
                prop_assert_eq!(
                    *whole, version == base,
                    "a journal holds entries, after the checkpoint they extend"
                );
                prop_assert_eq!(
                    &bytes[..], &expect[..],
                    "recovered bytes must match what that version wrote"
                );
            }
        }
        // The tear only ever removes the newest suffix: every uid whose
        // final version predates the torn frames must still be present.
        let torn = log.torn_segments();
        prop_assert!(torn <= 1, "one tear, at most one torn segment");
        drop(log);
        // The truncation is durable: a second reopen sees a clean log.
        let log = DurableLog::open(std::sync::Arc::clone(&fs), cfg).unwrap();
        prop_assert_eq!(log.torn_segments(), 0);
    }
}

// ---------------------------------------------------------------------------
// The outcome ledger under fire, and span propagation through recovery.
// ---------------------------------------------------------------------------

#[test]
fn outcome_ledger_balances_under_injected_fire() {
    // Every logical invocation must land on exactly one side of the
    // ledger — `invocations == successes + fatal_failures` once all are
    // resolved — no matter how it got there: first try, after retries, by
    // injected error, or by deadline expiry. Retries re-send an existing
    // invocation and must not open new ledger entries.
    let kernel = Kernel::new();
    kernel.register_type("DurableCounter", DurableCounter::factory);
    let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();

    // A plain first-try success.
    kernel.invoke(counter, "Add", Value::Int(1)).wait().unwrap();
    // An injected error with no retry: one fatal failure.
    kernel.install_faults(
        FaultPlan::new(11).rule(
            FaultRule::new(FaultKind::Error)
                .on_op("Add")
                .nth(1)
                .labeled("e"),
        ),
    );
    kernel
        .invoke(counter, "Add", Value::Int(1))
        .wait()
        .unwrap_err();
    // Two drops survived by retry: one success, despite three deliveries.
    kernel.install_faults(
        FaultPlan::new(12)
            .rule(
                FaultRule::new(FaultKind::Drop)
                    .on_op("Add")
                    .nth(1)
                    .labeled("d1"),
            )
            .rule(
                FaultRule::new(FaultKind::Drop)
                    .on_op("Add")
                    .nth(1)
                    .labeled("d2"),
            ),
    );
    kernel
        .invoke_with(counter, "Add", Value::Int(1), retrying())
        .wait()
        .unwrap();
    // Every delivery dropped until the deadline: one fatal failure, not
    // one per attempt.
    kernel.install_faults(
        FaultPlan::new(13).rule(FaultRule::new(FaultKind::Drop).on_op("Add").labeled("all")),
    );
    kernel
        .invoke_with(
            counter,
            "Add",
            Value::Int(1),
            InvokeOptions::new()
                .deadline(Duration::from_millis(40))
                .retry(RetryPolicy::retries(1000).base_delay(Duration::from_millis(2))),
        )
        .wait()
        .unwrap_err();
    // An application-level error (unknown op): one fatal failure.
    kernel
        .invoke(counter, "Bogus", Value::Unit)
        .wait()
        .unwrap_err();

    let m = kernel.metrics().snapshot();
    assert_eq!(
        m.invocations,
        m.successes + m.fatal_failures,
        "ledger out of balance: {} invocations vs {} + {}",
        m.invocations,
        m.successes,
        m.fatal_failures
    );
    assert_eq!(m.successes, 2);
    assert_eq!(m.fatal_failures, 3);
    kernel.shutdown();
}

#[test]
fn outcome_ledger_balances_under_probabilistic_fire() {
    // The audit version: a seeded FaultInjector decides fates at random;
    // whatever mix of errors, drops, retries, and timeouts falls out, the
    // ledger must balance exactly once the invocations resolve.
    for seed in [5, 21, 0xfa11] {
        let kernel = Kernel::new();
        kernel.register_type("DurableCounter", DurableCounter::factory);
        let counter = kernel.spawn(Box::new(DurableCounter { total: 0 })).unwrap();
        kernel.install_faults(
            FaultPlan::new(seed)
                .rule(
                    FaultRule::new(FaultKind::Error)
                        .on_op("Add")
                        .with_probability(0.3),
                )
                .rule(
                    FaultRule::new(FaultKind::Drop)
                        .on_op("Add")
                        .with_probability(0.2),
                ),
        );
        let mut ok = 0u64;
        let mut failed = 0u64;
        for _ in 0..30 {
            let outcome = kernel
                .invoke_with(
                    counter,
                    "Add",
                    Value::Int(1),
                    InvokeOptions::new()
                        .deadline(Duration::from_millis(200))
                        .retry(RetryPolicy::retries(5).base_delay(Duration::from_millis(1))),
                )
                .wait();
            match outcome {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
        let m = kernel.metrics().snapshot();
        assert_eq!(
            m.invocations,
            m.successes + m.fatal_failures,
            "seed {seed}: ledger out of balance"
        );
        assert_eq!(m.successes, ok, "seed {seed}");
        assert_eq!(m.fatal_failures, failed, "seed {seed}");
        kernel.shutdown();
    }
}

#[test]
fn recovery_keeps_the_crashed_stream_in_one_trace() {
    // Span propagation across crash and reactivation: the delivery that
    // dies, the retries that bring the stage back, and the replayed stream
    // all carry the run's trace id — one causal tree, not a new trace per
    // recovery.
    let kernel = Kernel::with_config(KernelConfig {
        observability: ObsConfig::full(),
        ..KernelConfig::default()
    });
    let reg = registry();
    install_recovery(&kernel, &reg);
    kernel.install_faults(
        FaultPlan::new(0xcafe).rule(
            FaultRule::new(FaultKind::CrashTarget)
                .on_op("Transfer")
                .nth(8)
                .labeled("crash"),
        ),
    );
    let run = run_recoverable_pipeline(
        &kernel,
        RecoveryDiscipline::ReadOnly,
        (0..40).map(Value::Int).collect(),
        &["double", "inc"],
        &reg,
        5,
        Duration::from_secs(60),
    )
    .unwrap();
    assert_eq!(
        run.output,
        expected(40),
        "recovery must not corrupt the stream"
    );
    let m = kernel.metrics().snapshot();
    assert_eq!(m.crashes, 1);
    assert!(m.reactivations >= 1);

    // Spans settle before their replies, but the last few can land on
    // coordinator threads after the run returns: poll until the trace has
    // its failed span and the count stops moving. (The run batches
    // records, so the span count is structural, not per-record.)
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut last_len = 0usize;
    let mut stable = 0u32;
    let spans = loop {
        let spans: Vec<_> = kernel
            .spans()
            .into_iter()
            .filter(|s| s.trace == run.trace)
            .collect();
        let settled = !spans.is_empty() && spans.iter().any(|s| !s.ok);
        if settled && spans.len() == last_len {
            stable += 1;
        } else {
            stable = 0;
            last_len = spans.len();
        }
        if (settled && stable >= 3) || std::time::Instant::now() >= deadline {
            break spans;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        spans.len() >= 12,
        "a recovered depth-2 run must leave a substantial trace, got {}",
        spans.len()
    );
    let crashed = spans.iter().filter(|s| !s.ok).count();
    assert!(
        crashed >= 1,
        "the crashed delivery must appear in the trace as a failed span"
    );
    // The recovered replay is *in* the tree: every parent resolves to
    // another span of this trace or to the run's unrecorded ambient root.
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span).collect();
    assert_eq!(ids.len(), spans.len(), "span ids must be unique");
    let mut roots = std::collections::HashSet::new();
    for s in &spans {
        match s.parent {
            Some(p) if ids.contains(&p) => {}
            Some(p) => {
                roots.insert(p);
            }
            None => panic!("span {} lost its causal parent", s.span),
        }
    }
    assert_eq!(
        roots.len(),
        1,
        "crash recovery must not fork the causal tree: roots {roots:?}"
    );
    kernel.shutdown();
}
