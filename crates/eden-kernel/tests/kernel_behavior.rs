//! Behavioural tests for the kernel: invocation semantics, deferred
//! replies (passive output), activation/deactivation, checkpointing,
//! crash recovery, worker processes, and shutdown hygiene.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eden_core::op::ops;
use eden_core::{EdenError, Value};
use eden_kernel::{
    EjectBehavior, EjectContext, EjectState, FaultKind, FaultPlan, FaultRule, Invocation, Kernel,
    KernelConfig, NodeId, ReplyHandle, SchedulerConfig, StableStore,
};

/// Replies to `Echo` with its argument and to `Fail` with an error.
struct Echo;

impl EjectBehavior for Echo {
    fn type_name(&self) -> &'static str {
        "Echo"
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Echo" => reply.reply(Ok(inv.arg)),
            "Fail" => reply.reply(Err(EdenError::Application("requested".into()))),
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

/// A counter whose state survives checkpoints: the paper's minimal
/// "consistent state after reactivation" story.
struct Counter {
    count: i64,
}

impl Counter {
    fn from_passive(rep: Option<Value>) -> eden_core::Result<Box<dyn EjectBehavior>> {
        let count = match rep {
            Some(v) => v.field("count")?.as_int()?,
            None => 0,
        };
        Ok(Box::new(Counter { count }))
    }
}

impl EjectBehavior for Counter {
    fn type_name(&self) -> &'static str {
        "Counter"
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Increment" => {
                self.count += 1;
                reply.reply(Ok(Value::Int(self.count)));
            }
            "Get" => reply.reply(Ok(Value::Int(self.count))),
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
    fn passive_representation(&self) -> Option<Value> {
        Some(Value::record([("count", Value::Int(self.count))]))
    }
}

/// Parks `Take` replies until `Put` supplies data: passive output in
/// miniature (a one-slot source).
#[derive(Default)]
struct Cell {
    data: Vec<Value>,
    waiting: Vec<ReplyHandle>,
}

impl EjectBehavior for Cell {
    fn type_name(&self) -> &'static str {
        "Cell"
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Put" => {
                self.data.push(inv.arg);
                reply.reply(Ok(Value::Unit));
                while !self.waiting.is_empty() && !self.data.is_empty() {
                    let waiter = self.waiting.remove(0);
                    waiter.reply(Ok(self.data.remove(0)));
                }
            }
            "Take" => {
                if self.data.is_empty() {
                    reply.mark_deferred();
                    self.waiting.push(reply);
                } else {
                    reply.reply(Ok(self.data.remove(0)));
                }
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

#[test]
fn echo_roundtrip() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let got = kernel
        .invoke(echo, "Echo", Value::str("hi"))
        .wait()
        .unwrap();
    assert_eq!(got.as_str().unwrap(), "hi");
    kernel.shutdown();
}

#[test]
fn application_errors_propagate() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let err = kernel.invoke(echo, "Fail", Value::Unit).wait().unwrap_err();
    assert_eq!(err, EdenError::Application("requested".into()));
    kernel.shutdown();
}

#[test]
fn unknown_operation_is_rejected() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let err = kernel
        .invoke(echo, "Bogus", Value::Unit)
        .wait()
        .unwrap_err();
    assert!(matches!(err, EdenError::NoSuchOperation { .. }));
    kernel.shutdown();
}

#[test]
fn unknown_uid_is_rejected() {
    let kernel = Kernel::new();
    let err = kernel
        .invoke(eden_core::Uid::fresh(), "Echo", Value::Unit)
        .wait()
        .unwrap_err();
    assert!(matches!(err, EdenError::NoSuchEject(_)));
    kernel.shutdown();
}

#[test]
fn async_invocation_does_not_suspend_sender() {
    // "The sending of an invocation does not suspend the execution of the
    // sending Eject" — send many invocations before collecting any reply.
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let pendings: Vec<_> = (0..64)
        .map(|i| kernel.invoke(echo, "Echo", Value::Int(i)))
        .collect();
    for (i, p) in pendings.into_iter().enumerate() {
        assert_eq!(p.wait().unwrap(), Value::Int(i as i64));
    }
    kernel.shutdown();
}

#[test]
fn describe_reports_type_name() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let name = kernel
        .invoke(echo, ops::DESCRIBE, Value::Unit)
        .wait()
        .unwrap();
    assert_eq!(name.as_str().unwrap(), "Echo");
    kernel.shutdown();
}

#[test]
fn deferred_reply_is_passive_output() {
    let kernel = Kernel::new();
    let cell = kernel.spawn(Box::new(Cell::default())).unwrap();
    // Take first: the reply is parked (a "partial vacuum").
    let pending = kernel.invoke(cell, "Take", Value::Unit);
    std::thread::sleep(Duration::from_millis(20));
    kernel
        .invoke(cell, "Put", Value::str("datum"))
        .wait()
        .unwrap();
    assert_eq!(pending.wait().unwrap().as_str().unwrap(), "datum");
    assert!(kernel.metrics().snapshot().deferred_replies >= 1);
    kernel.shutdown();
}

#[test]
fn multiple_parked_takes_serve_in_order() {
    let kernel = Kernel::new();
    let cell = kernel.spawn(Box::new(Cell::default())).unwrap();
    let p1 = kernel.invoke(cell, "Take", Value::Unit);
    let p2 = kernel.invoke(cell, "Take", Value::Unit);
    kernel.invoke(cell, "Put", Value::Int(1)).wait().unwrap();
    kernel.invoke(cell, "Put", Value::Int(2)).wait().unwrap();
    assert_eq!(p1.wait().unwrap(), Value::Int(1));
    assert_eq!(p2.wait().unwrap(), Value::Int(2));
    kernel.shutdown();
}

#[test]
fn deactivate_without_checkpoint_disappears() {
    // §7: the UnixFile Eject "deactivates itself and, since it has never
    // Checkpointed, disappears".
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    kernel
        .invoke(echo, ops::DEACTIVATE, Value::Unit)
        .wait()
        .unwrap();
    // The coordinator exits asynchronously; wait for it to be gone.
    kernel.await_gone(&[echo], Duration::from_secs(5));
    assert_eq!(kernel.eject_state(echo), None);
    let err = kernel.invoke(echo, "Echo", Value::Unit).wait().unwrap_err();
    assert!(matches!(err, EdenError::NoSuchEject(_)));
    kernel.shutdown();
}

fn register_counter(kernel: &Kernel) {
    kernel.register_type("Counter", Counter::from_passive);
}

#[test]
fn checkpoint_then_deactivate_then_reactivate_on_invocation() {
    let kernel = Kernel::new();
    register_counter(&kernel);
    let counter = kernel.spawn(Box::new(Counter { count: 0 })).unwrap();
    for _ in 0..3 {
        kernel
            .invoke(counter, "Increment", Value::Unit)
            .wait()
            .unwrap();
    }
    kernel
        .invoke(counter, ops::CHECKPOINT, Value::Unit)
        .wait()
        .unwrap();
    kernel
        .invoke(counter, ops::DEACTIVATE, Value::Unit)
        .wait()
        .unwrap();
    kernel.await_gone(&[counter], Duration::from_secs(5));
    assert_eq!(kernel.eject_state(counter), Some(EjectState::Passive));
    // Invocation reactivates it with the checkpointed state.
    let got = kernel.invoke(counter, "Get", Value::Unit).wait().unwrap();
    assert_eq!(got, Value::Int(3));
    assert_eq!(kernel.eject_state(counter), Some(EjectState::Active));
    kernel.shutdown();
}

#[test]
fn crash_loses_post_checkpoint_state() {
    let kernel = Kernel::new();
    register_counter(&kernel);
    let counter = kernel.spawn(Box::new(Counter { count: 0 })).unwrap();
    kernel
        .invoke(counter, "Increment", Value::Unit)
        .wait()
        .unwrap();
    kernel
        .invoke(counter, "Increment", Value::Unit)
        .wait()
        .unwrap();
    kernel
        .invoke(counter, ops::CHECKPOINT, Value::Unit)
        .wait()
        .unwrap();
    // Post-checkpoint work is volatile.
    kernel
        .invoke(counter, "Increment", Value::Unit)
        .wait()
        .unwrap();
    kernel.crash(counter).unwrap();
    let got = kernel.invoke(counter, "Get", Value::Unit).wait().unwrap();
    assert_eq!(got, Value::Int(2), "state must roll back to the checkpoint");
    kernel.shutdown();
}

#[test]
fn crash_without_checkpoint_destroys() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    kernel.crash(echo).unwrap();
    assert_eq!(kernel.eject_state(echo), None);
    kernel.shutdown();
}

#[test]
fn crash_drops_parked_replies() {
    let kernel = Kernel::new();
    let cell = kernel.spawn(Box::new(Cell::default())).unwrap();
    let pending = kernel.invoke(cell, "Take", Value::Unit);
    std::thread::sleep(Duration::from_millis(20));
    kernel.crash(cell).unwrap();
    assert_eq!(pending.wait().unwrap_err(), EdenError::EjectCrashed(cell));
    kernel.shutdown();
}

#[test]
fn checkpoint_on_non_checkpointing_type_fails() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let err = kernel
        .invoke(echo, ops::CHECKPOINT, Value::Unit)
        .wait()
        .unwrap_err();
    assert!(matches!(err, EdenError::Application(_)));
    kernel.shutdown();
}

#[test]
fn whole_system_restart_from_stable_store() {
    // Simulate a machine crash: the kernel object is discarded; a new one
    // is built over the surviving stable store.
    let store = StableStore::new();
    let counter;
    {
        let kernel = Kernel::with_stable_store(KernelConfig::default(), store.clone());
        register_counter(&kernel);
        counter = kernel.spawn(Box::new(Counter { count: 0 })).unwrap();
        for _ in 0..5 {
            kernel
                .invoke(counter, "Increment", Value::Unit)
                .wait()
                .unwrap();
        }
        kernel
            .invoke(counter, ops::CHECKPOINT, Value::Unit)
            .wait()
            .unwrap();
        kernel.shutdown();
    }
    let kernel2 = Kernel::with_stable_store(KernelConfig::default(), store);
    register_counter(&kernel2);
    let got = kernel2.invoke(counter, "Get", Value::Unit).wait().unwrap();
    assert_eq!(got, Value::Int(5));
    kernel2.shutdown();
}

#[test]
fn corrupt_checkpoint_surfaces_cleanly() {
    // Bit-rot on stable storage must surface as CorruptCheckpoint at the
    // reactivating invocation, not a panic or a hang.
    let kernel = Kernel::new();
    register_counter(&kernel);
    let counter = kernel.spawn(Box::new(Counter { count: 3 })).unwrap();
    kernel
        .invoke(counter, ops::CHECKPOINT, Value::Unit)
        .wait()
        .unwrap();
    kernel.crash(counter).unwrap();
    // Corrupt the passive representation in place.
    kernel
        .stable_store()
        .store(counter, "Counter", vec![0xff, 0x13, 0x37].into())
        .unwrap();
    let err = kernel
        .invoke(counter, "Get", Value::Unit)
        .wait()
        .unwrap_err();
    assert!(matches!(err, EdenError::CorruptCheckpoint(_)), "got: {err}");
    kernel.shutdown();
}

#[test]
fn checkpoint_with_wrong_shape_fails_reconstruction() {
    // A decodable value of the wrong shape is the factory's problem and
    // must also fail cleanly.
    let kernel = Kernel::new();
    register_counter(&kernel);
    let counter = kernel.spawn(Box::new(Counter { count: 1 })).unwrap();
    kernel
        .invoke(counter, ops::CHECKPOINT, Value::Unit)
        .wait()
        .unwrap();
    kernel.crash(counter).unwrap();
    kernel
        .stable_store()
        .store(
            counter,
            "Counter",
            eden_core::wire::encode(&Value::str("not a counter record")).into(),
        )
        .unwrap();
    let err = kernel
        .invoke(counter, "Get", Value::Unit)
        .wait()
        .unwrap_err();
    assert!(matches!(err, EdenError::BadParameter(_)), "got: {err}");
    kernel.shutdown();
}

#[test]
fn reactivation_without_registered_type_fails() {
    let store = StableStore::new();
    let counter;
    {
        let kernel = Kernel::with_stable_store(KernelConfig::default(), store.clone());
        register_counter(&kernel);
        counter = kernel.spawn(Box::new(Counter { count: 0 })).unwrap();
        kernel
            .invoke(counter, ops::CHECKPOINT, Value::Unit)
            .wait()
            .unwrap();
        kernel.shutdown();
    }
    let kernel2 = Kernel::with_stable_store(KernelConfig::default(), store);
    // No register_type: the constructor is missing.
    let err = kernel2
        .invoke(counter, "Get", Value::Unit)
        .wait()
        .unwrap_err();
    assert!(matches!(err, EdenError::Application(_)));
    kernel2.shutdown();
}

/// A ledger that checkpoints its entries whole on `Fold` and journals each
/// `Add` beside that: the incremental form of §1's one stable-storage
/// primitive.
struct Ledger {
    entries: Vec<i64>,
}

impl Ledger {
    fn from_passive(rep: Option<Value>) -> eden_core::Result<Box<dyn EjectBehavior>> {
        let entries = match rep {
            Some(v) => v
                .as_list()?
                .iter()
                .map(Value::as_int)
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        Ok(Box::new(Ledger { entries }))
    }
}

impl EjectBehavior for Ledger {
    fn type_name(&self) -> &'static str {
        "Ledger"
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        let durable = match inv.op.as_str() {
            "Add" => ctx.journal(&inv.arg),
            "Fold" => ctx.checkpoint(&self.passive_representation().unwrap()),
            "Get" => return reply.reply(Ok(self.passive_representation().unwrap())),
            _ => Err(EdenError::Application("no such operation".into())),
        };
        // Durable before it counts, and before it is acknowledged.
        if durable.is_ok() && inv.op.as_str() != "Fold" {
            self.entries.push(inv.arg.as_int().unwrap());
        }
        reply.reply(durable.map(|()| Value::Unit));
    }
    fn redo(&mut self, entry: Value) -> eden_core::Result<()> {
        self.entries.push(entry.as_int()?);
        Ok(())
    }
    fn passive_representation(&self) -> Option<Value> {
        Some(Value::list(
            self.entries
                .iter()
                .copied()
                .map(Value::Int)
                .collect::<Vec<_>>(),
        ))
    }
}

#[test]
fn journaled_entries_are_redone_in_order_on_reactivation() {
    let kernel = Kernel::new();
    kernel.register_type("Ledger", Ledger::from_passive);
    let ledger = kernel.spawn(Box::new(Ledger { entries: vec![] })).unwrap();
    let call = |op: &str, n: i64| kernel.invoke(ledger, op, Value::Int(n)).wait();
    let held = || {
        let got = kernel.invoke(ledger, "Get", Value::Unit).wait().unwrap();
        got.as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect::<Vec<_>>()
    };
    // Nothing to extend yet: refused, and the Eject knows it was.
    assert!(matches!(call("Add", 1), Err(EdenError::NoSuchEject(_))));
    call("Fold", 0).unwrap();
    for n in [1, 2, 3] {
        call("Add", n).unwrap();
    }
    let m = kernel.metrics().snapshot();
    assert_eq!((m.checkpoints, m.journal_entries), (4, 3));
    assert!(m.checkpoint_bytes > 0);
    kernel.crash(ledger).unwrap();
    assert_eq!(
        held(),
        [1, 2, 3],
        "the checkpoint, then each entry, oldest first"
    );
    // A checkpoint starts the journal over.
    call("Fold", 0).unwrap();
    call("Add", 4).unwrap();
    let rec = kernel.stable_store().load(ledger).unwrap();
    assert_eq!((rec.journal.len(), rec.version), (1, 6));
    kernel.crash(ledger).unwrap();
    assert_eq!(held(), [1, 2, 3, 4]);
    kernel.shutdown();
}

#[test]
fn a_type_that_never_journals_refuses_to_redo() {
    let kernel = Kernel::new();
    register_counter(&kernel);
    let counter = kernel.spawn(Box::new(Counter { count: 0 })).unwrap();
    kernel
        .invoke(counter, "Increment", Value::Unit)
        .wait()
        .unwrap();
    kernel
        .invoke(counter, ops::CHECKPOINT, Value::Unit)
        .wait()
        .unwrap();
    // It never calls `journal`, so it comes back exactly as it always has.
    kernel.crash(counter).unwrap();
    let got = kernel.invoke(counter, "Get", Value::Unit).wait().unwrap();
    assert_eq!(got, Value::Int(1));
    // An entry somebody else put beside its checkpoint is not its to apply.
    let entry = eden_core::wire::encode(&Value::Int(7));
    kernel.stable_store().append(counter, entry.into()).unwrap();
    kernel.crash(counter).unwrap();
    let err = kernel
        .invoke(counter, "Get", Value::Unit)
        .wait()
        .unwrap_err();
    assert!(
        matches!(&err, EdenError::Application(why) if why.contains("no journal")),
        "{err}"
    );
    kernel.shutdown();
}

/// An Eject whose worker process does the computation and posts the result
/// back as an internal event — the coordinator/worker organisation of §4.
struct Delegator {
    parked: Option<ReplyHandle>,
}

impl EjectBehavior for Delegator {
    fn type_name(&self) -> &'static str {
        "Delegator"
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Compute" => {
                let n = inv.arg.as_int().unwrap_or(0);
                reply.mark_deferred();
                self.parked = Some(reply);
                ctx.spawn_process("worker", move |pctx| {
                    let result = Value::Int(n * n);
                    let _ = pctx.post_internal(result);
                });
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
    fn internal(&mut self, _ctx: &EjectContext, event: Value) {
        if let Some(reply) = self.parked.take() {
            reply.reply(Ok(event));
        }
    }
}

#[test]
fn worker_process_posts_internal_event() {
    let kernel = Kernel::new();
    let d = kernel.spawn(Box::new(Delegator { parked: None })).unwrap();
    let got = kernel.invoke(d, "Compute", Value::Int(9)).wait().unwrap();
    assert_eq!(got, Value::Int(81));
    assert!(kernel.metrics().snapshot().internal_messages >= 1);
    kernel.shutdown();
}

#[test]
fn invocations_after_shutdown_fail_fast() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    kernel.shutdown();
    let err = kernel.invoke(echo, "Echo", Value::Unit).wait().unwrap_err();
    assert_eq!(err, EdenError::KernelShutdown);
}

#[test]
fn shutdown_is_idempotent() {
    let kernel = Kernel::new();
    kernel.spawn(Box::new(Echo)).unwrap();
    kernel.shutdown();
    kernel.shutdown();
}

#[test]
fn spawn_after_shutdown_fails() {
    let kernel = Kernel::new();
    kernel.shutdown();
    assert!(kernel.spawn(Box::new(Echo)).is_err());
}

#[test]
fn drop_shuts_down_cleanly() {
    // No explicit shutdown: dropping the last handle must not hang and
    // must stop the coordinators.
    let kernel = Kernel::new();
    let _ = kernel.spawn(Box::new(Echo)).unwrap();
    let _ = kernel.spawn(Box::new(Cell::default())).unwrap();
    drop(kernel);
}

#[test]
fn metrics_count_invocations_and_replies() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let before = kernel.metrics().snapshot();
    for _ in 0..10 {
        kernel.invoke(echo, "Echo", Value::str("x")).wait().unwrap();
    }
    let delta = kernel.metrics().snapshot().since(&before);
    assert_eq!(delta.invocations, 10);
    assert_eq!(delta.replies, 10);
    assert_eq!(delta.bytes_invoked, 10);
    assert_eq!(delta.bytes_replied, 10);
    kernel.shutdown();
}

#[test]
fn cross_node_invocations_are_counted_remote() {
    let kernel = Kernel::new();
    let local = kernel.spawn_on(NodeId(0), Box::new(Echo)).unwrap();
    let remote = kernel.spawn_on(NodeId(1), Box::new(Echo)).unwrap();
    let before = kernel.metrics().snapshot();
    kernel.invoke(local, "Echo", Value::Unit).wait().unwrap();
    kernel.invoke(remote, "Echo", Value::Unit).wait().unwrap();
    let delta = kernel.metrics().snapshot().since(&before);
    assert_eq!(delta.invocations, 2);
    assert_eq!(delta.remote_invocations, 1);
    kernel.shutdown();
}

#[test]
fn eject_to_eject_invocation() {
    // A forwards to B: service composition via invocation, the Eden norm.
    struct Forwarder {
        next: eden_core::Uid,
    }
    impl EjectBehavior for Forwarder {
        fn type_name(&self) -> &'static str {
            "Forwarder"
        }
        fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
            let result = ctx.invoke(self.next, inv.op, inv.arg).wait();
            reply.reply(result);
        }
    }
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let fwd = kernel.spawn(Box::new(Forwarder { next: echo })).unwrap();
    let got = kernel
        .invoke(fwd, "Echo", Value::str("via"))
        .wait()
        .unwrap();
    assert_eq!(got.as_str().unwrap(), "via");
    kernel.shutdown();
}

#[test]
fn concurrent_clients_are_serialized_per_eject() {
    let kernel = Kernel::new();
    register_counter(&kernel);
    let counter = kernel.spawn(Box::new(Counter { count: 0 })).unwrap();
    let done = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let k = kernel.clone();
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                k.invoke(counter, "Increment", Value::Unit).wait().unwrap();
            }
            done.fetch_add(1, Ordering::SeqCst);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let got = kernel.invoke(counter, "Get", Value::Unit).wait().unwrap();
    assert_eq!(got, Value::Int(400));
    kernel.shutdown();
}

#[test]
fn injected_latency_slows_invocations() {
    let kernel = Kernel::new();
    kernel.install_faults(
        FaultPlan::new(0).rule(FaultRule::new(FaultKind::Delay(Duration::from_millis(5)))),
    );
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let start = std::time::Instant::now();
    for _ in 0..4 {
        kernel.invoke(echo, "Echo", Value::Unit).wait().unwrap();
    }
    assert!(start.elapsed() >= Duration::from_millis(20));
    kernel.shutdown();
}

// ---------------------------------------------------------------------
// What a call holds, and what shuts the kernel down. An Eject's context
// holds its kernel for its whole life, so a send takes and drops no handle;
// shutdown is the last *user* handle's drop, which no context is.

/// Answers, while it serves, how many holders share its kernel's state and
/// how many share its counters, through a handle it keeps from spawn on.
struct HandleCounts {
    kernel: Kernel,
}

impl EjectBehavior for HandleCounts {
    fn type_name(&self) -> &'static str {
        "HandleCounts"
    }
    fn replies_last(&self) -> bool {
        true
    }
    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(handle_counts(&self.kernel)));
    }
}

fn handle_counts(kernel: &Kernel) -> Value {
    let counts = [kernel.handle_count(), kernel.metrics().handle_count()];
    Value::list(counts.map(|n| Value::Int(n as i64)).to_vec())
}

/// Passes what it is asked on to `next` as a call, and answers what came back.
struct CallOn {
    next: eden_core::Uid,
}

impl EjectBehavior for CallOn {
    fn type_name(&self) -> &'static str {
        "CallOn"
    }
    fn replies_last(&self) -> bool {
        true
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        reply.reply(ctx.call(self.next, inv.op, inv.arg));
    }
}

/// A callee reached by `EjectContext::call` reads the same number of holders
/// of its kernel and of its counters as were there before the call, whether
/// it runs on the test's thread or on a pool worker: neither the send nor the
/// reply cell takes a handle on either.
#[test]
fn an_in_flight_call_holds_no_kernel_wide_handle() {
    let kernel = Kernel::builder()
        .scheduler(SchedulerConfig { workers: 1 })
        .build();
    let counts = HandleCounts {
        kernel: kernel.clone(),
    };
    let counts = kernel.spawn(Box::new(counts)).unwrap();
    let caller = kernel.spawn(Box::new(CallOn { next: counts })).unwrap();
    kernel.call(caller, "Counts", Value::Unit).unwrap();
    // A spare worker brings its own handle on the counters, so the counts are
    // read with the pool at its one worker and every Eject parked, and a run
    // the pool grew under is made again.
    let pool = || {
        let snap = kernel.metrics_snapshot();
        let sched = snap.sched;
        let quiet = sched.workers == 1 && sched.parked_ejects == sched.resident_ejects;
        (quiet, snap.metrics.spares_spawned)
    };
    let mut clean = 0;
    for _ in 0..200 {
        let (quiet, spares) = pool();
        if !quiet {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let at_rest = handle_counts(&kernel);
        let on_this_thread = kernel.call(caller, "Counts", Value::Unit);
        let on_the_worker = kernel.invoke(caller, "Counts", Value::Unit).wait();
        if pool().1 == spares {
            assert_eq!(on_this_thread, Ok(at_rest.clone()));
            assert_eq!(on_the_worker, Ok(at_rest));
            clean += 1;
        }
        if clean == 3 {
            break;
        }
    }
    assert_eq!(clean, 3, "the pool grew under every run");
    kernel.shutdown();
}

/// One stage of a pipeline that never ends: passes `Hop` down as a call.
struct Stage {
    next: Option<eden_core::Uid>,
}

impl EjectBehavior for Stage {
    fn type_name(&self) -> &'static str {
        "Stage"
    }
    fn replies_last(&self) -> bool {
        true
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        reply.reply(match self.next {
            Some(next) => ctx.call(next, inv.op, inv.arg),
            None => Ok(inv.arg),
        });
    }
}

/// Drives a pipeline from its own steps: a call to `head`, then the next step.
struct Pump {
    head: eden_core::Uid,
}

impl EjectBehavior for Pump {
    fn type_name(&self) -> &'static str {
        "Pump"
    }
    fn activate(&mut self, ctx: &EjectContext) {
        ctx.nudge();
    }
    fn internal(&mut self, ctx: &EjectContext, _event: Value) {
        if ctx.call(self.head, "Hop", Value::Unit).is_ok() {
            ctx.nudge();
        }
    }
    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
    }
}

/// Eight depth-4 pipelines pumping on the pool, and eight user handles
/// dropped at once from eight threads: one of those drops shuts the kernel
/// down and joins its pool, so once they are all back nothing of the kernel
/// is left — the registry → task → context → kernel cycle included.
#[test]
fn dropping_the_last_user_handles_mid_flight_shuts_down_and_frees_everything() {
    let kernel = Kernel::new();
    for _ in 0..8 {
        let mut head = kernel.spawn(Box::new(Stage { next: None })).unwrap();
        for _ in 0..4 {
            head = kernel.spawn(Box::new(Stage { next: Some(head) })).unwrap();
        }
        kernel.spawn(Box::new(Pump { head })).unwrap();
    }
    let alive = kernel.liveness_probe();
    let pumped = |kernel: &Kernel| kernel.metrics().snapshot().invocations;
    while pumped(&kernel) < 8 * 5 * 20 {
        std::thread::yield_now();
    }
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let droppers: Vec<_> = (0..8)
        .map(|_| {
            let (kernel, barrier) = (kernel.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                drop(kernel);
            })
        })
        .collect();
    drop(kernel);
    for dropper in droppers {
        dropper.join().unwrap();
    }
    assert!(
        !alive(),
        "a dropped kernel left its state or its pool behind"
    );
}

/// Keeps a handle on its kernel from `Hold` on. On `Release` it waits for
/// word that every other handle is gone, makes a call — the kernel it keeps
/// up must serve it — and then lets its handle go, the last, on its worker.
struct Holder {
    kernel: Option<Kernel>,
    echo: eden_core::Uid,
    go: Option<std::sync::mpsc::Receiver<()>>,
}

impl EjectBehavior for Holder {
    fn type_name(&self) -> &'static str {
        "Holder"
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        if inv.op.as_str() == "Hold" {
            self.kernel = ctx.kernel();
            return reply.reply(Ok(Value::Bool(self.kernel.is_some())));
        }
        let go = self.go.take().expect("one Release");
        eden_kernel::blocking(|| go.recv()).expect("the test's word");
        let served = ctx.call(self.echo, "Echo", Value::Int(7));
        drop(self.kernel.take());
        reply.reply(served);
    }
}

/// A `ctx.kernel()` handle is a user handle: kept by a behaviour, it keeps
/// the kernel up after the test's own is gone. Let go on a pool worker, it
/// shuts the kernel down there — which waits for and joins nothing on that
/// worker's own thread — and the worker then frees what is left.
#[test]
fn a_kept_context_handle_keeps_the_kernel_up_and_its_last_drop_on_a_worker_frees_it() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let (go, word) = std::sync::mpsc::channel();
    let holder = Holder {
        kernel: None,
        echo,
        go: Some(word),
    };
    let holder = kernel.spawn(Box::new(holder)).unwrap();
    assert_eq!(
        kernel.call(holder, "Hold", Value::Unit),
        Ok(Value::Bool(true))
    );
    let released = kernel.invoke(holder, "Release", Value::Unit);
    let alive = kernel.liveness_probe();
    drop(kernel);
    assert!(alive(), "the behaviour's handle did not keep the kernel");
    go.send(()).unwrap();
    assert_eq!(
        released.wait_timeout(Duration::from_secs(10)),
        Ok(Value::Int(7))
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while alive() {
        assert!(
            std::time::Instant::now() < deadline,
            "the kernel was never freed"
        );
        std::thread::yield_now();
    }
}
