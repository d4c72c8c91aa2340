//! The fast invocation plane must be *semantically invisible*: sharded
//! registries, cached routes and bounded mailboxes change how fast an
//! invocation is delivered, never what it does. These tests pin the
//! invisibility down — a stale cached route across checkpoint → crash →
//! reactivation yields a byte-identical stream, a cache hit still costs
//! exactly one metered invocation, and injected invocation latency is
//! paid outside every registry lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden::core::op::ops;
use eden::core::{EdenError, Result, Uid, Value};
use eden::filters::LineNumber;
use eden::fs::{register_fs_types, FileEject};
use eden::kernel::{
    EjectBehavior, EjectContext, FaultKind, FaultPlan, FaultRule, Invocation, InvokeOptions,
    Kernel, KernelConfig, ObsConfig, ReplyHandle, RetryPolicy, RouteCache, SchedulerConfig,
    ShedPolicy,
};
use eden::transput::protocol::{Batch, TransferRequest};
use eden::transput::recovery::{install_recovery, recoverable_filter, TransformRegistry};

/// Replies to `Echo` with its argument, as its last act.
struct Echo;

impl EjectBehavior for Echo {
    fn type_name(&self) -> &'static str {
        "Echo"
    }
    fn replies_last(&self) -> bool {
        true
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Echo" => reply.reply(Ok(inv.arg)),
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

/// An Echo with a passive representation: deactivated, it reactivates on
/// its next invocation.
struct KeptEcho;

impl EjectBehavior for KeptEcho {
    fn type_name(&self) -> &'static str {
        "KeptEcho"
    }
    fn replies_last(&self) -> bool {
        true
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        Echo.handle(ctx, inv, reply)
    }
    fn passive_representation(&self) -> Option<Value> {
        Some(Value::Unit)
    }
}

/// Calls `Echo(7)` on the target a `Relay` names, from inside an Eject: by
/// `begin_call` under a retry policy, through a route cache of its own when
/// the `Relay` asks for one. Counts the calls whose reply was not in when
/// `begin_call` returned.
struct Relay {
    cache: RouteCache,
    waited: Arc<AtomicUsize>,
}

impl EjectBehavior for Relay {
    fn type_name(&self) -> &'static str {
        "Relay"
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        let [target, cached] = inv.arg.as_list().expect("[target, cached]") else {
            panic!("a Relay names a target and whether to cache its route");
        };
        let opts = InvokeOptions::new().retry(RetryPolicy::retries(2));
        let opts = match cached.as_bool().expect("cached") {
            true => opts.route_cache(&mut self.cache),
            false => opts,
        };
        let target = target.as_uid().expect("target");
        let pending = ctx.begin_call(target, "Echo", Value::Int(7), opts);
        reply.reply(pending.try_wait().unwrap_or_else(|pending| {
            self.waited.fetch_add(1, Ordering::SeqCst);
            pending.wait()
        }));
    }
}

/// An Echo that dawdles: used to back the mailbox up against its bound.
struct SlowEcho {
    served: Arc<AtomicUsize>,
}

impl EjectBehavior for SlowEcho {
    fn type_name(&self) -> &'static str {
        "SlowEcho"
    }
    fn handle(&mut self, _ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        std::thread::sleep(Duration::from_millis(1));
        self.served.fetch_add(1, Ordering::SeqCst);
        reply.reply(Ok(inv.arg));
    }
}

fn registry() -> TransformRegistry {
    TransformRegistry::new(&[("line-number", || Box::new(LineNumber::new()))])
}

fn register_all(kernel: &Kernel) {
    register_fs_types(kernel);
    install_recovery(kernel, &registry());
}

/// `FileEject` lines → recoverable cursor → recoverable line-number filter.
fn durable_chain(kernel: &Kernel, lines: i64) -> Uid {
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(
            (0..lines).map(|i| format!("record {i}")),
        )))
        .expect("file");
    let cursor = kernel
        .invoke(file, "OpenDurable", Value::Unit)
        .wait()
        .expect("open durable")
        .as_uid()
        .expect("cursor uid");
    kernel
        .spawn(recoverable_filter("line-number", &registry(), cursor, 2).expect("filter"))
        .expect("spawn filter")
}

fn transfer_cached(
    kernel: &Kernel,
    cache: &mut RouteCache,
    target: Uid,
    max: usize,
    pos: usize,
) -> Batch {
    Batch::from_value(
        kernel
            .invoke_with(
                target,
                ops::TRANSFER,
                TransferRequest::primary(max).at(pos as u64).to_value(),
                InvokeOptions::new().route_cache(cache),
            )
            .wait()
            .expect("transfer"),
    )
    .expect("batch")
}

/// Drain the filter through one long-lived route cache, crashing the
/// filter after every `crash_every`th batch (0 = never). Every
/// post-crash transfer is sent down a *stale* cached route first and
/// must transparently re-resolve.
fn drain_with_crashes(kernel: &Kernel, filter: Uid, crash_every: usize) -> Vec<Value> {
    let mut cache = RouteCache::new();
    let mut out = Vec::new();
    let mut batches = 0usize;
    loop {
        let batch = transfer_cached(kernel, &mut cache, filter, 2, out.len());
        batches += 1;
        out.extend(batch.items);
        if batch.end {
            return out;
        }
        if crash_every > 0 && batches.is_multiple_of(crash_every) {
            kernel.crash(filter).expect("crash filter");
        }
    }
}

#[test]
fn stale_cached_route_survives_checkpoint_crash_reactivation() {
    // Reference stream: no crashes, same cache discipline.
    let reference = {
        let kernel = Kernel::new();
        register_all(&kernel);
        let filter = durable_chain(&kernel, 11);
        let out = drain_with_crashes(&kernel, filter, 0);
        kernel.shutdown();
        out
    };
    assert_eq!(reference.len(), 11);

    // Crash the (checkpointing) filter after every second batch. The
    // cache still holds the route to the dead incarnation each time;
    // delivery must bounce, re-resolve, reactivate from the checkpoint,
    // and the stream must be byte-identical. The surviving batches in
    // between must be genuine cache hits.
    let kernel = Kernel::new();
    register_all(&kernel);
    let filter = durable_chain(&kernel, 11);
    let out = drain_with_crashes(&kernel, filter, 2);
    assert_eq!(out, reference, "stale routes corrupted the stream");

    let snap = kernel.metrics().snapshot();
    assert!(snap.crashes >= 2, "schedule failed to crash mid-stream");
    assert!(
        snap.route_cache_hits > 0,
        "the cache was never hit — the test exercised nothing"
    );
    // Every crash forces at least one bounce → miss → refresh.
    assert!(
        snap.route_cache_misses >= snap.crashes,
        "crashes ({}) did not all invalidate the route (misses {})",
        snap.crashes,
        snap.route_cache_misses
    );
    kernel.shutdown();

    // And the harshest schedule — crash after *every* batch, so the
    // cached route is stale on every single delivery — still yields the
    // identical stream.
    let kernel = Kernel::new();
    register_all(&kernel);
    let filter = durable_chain(&kernel, 11);
    let out = drain_with_crashes(&kernel, filter, 1);
    assert_eq!(out, reference, "all-stale schedule corrupted the stream");
    kernel.shutdown();
}

#[test]
fn cache_hits_are_not_counted_as_invocation_savings() {
    // §4's arithmetic is denominated in invocations; a cached route makes
    // each one cheaper but must still count. Ten invocations through one
    // cache = ten metered invocations: one cold miss, nine hits.
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    let before = kernel.metrics().snapshot();
    let mut cache = RouteCache::new();
    for i in 0..10i64 {
        let got = kernel
            .invoke_with(
                echo,
                "Echo",
                Value::Int(i),
                InvokeOptions::new().route_cache(&mut cache),
            )
            .wait()
            .unwrap();
        assert_eq!(got, Value::Int(i));
    }
    let snap = kernel.metrics().snapshot().since(&before);
    assert_eq!(snap.invocations, 10, "hits must meter like any invocation");
    assert_eq!(snap.route_cache_misses, 1);
    assert_eq!(snap.route_cache_hits, 9);
    kernel.shutdown();
}

/// One send of `Echo(7)` to `target`: through the registry when `cache` is
/// `None`, by that route cache otherwise — or by `relay`, which sends from
/// inside an Eject through a cache of its own when `cache` is `Some`.
type Send = fn(&Kernel, Option<&mut RouteCache>, Uid, Uid) -> Result<Value>;

fn invoke_echo(
    kernel: &Kernel,
    cache: Option<&mut RouteCache>,
    target: Uid,
    _: Uid,
) -> Result<Value> {
    match cache {
        None => kernel.invoke(target, "Echo", Value::Int(7)).wait(),
        Some(cache) => {
            let opts = InvokeOptions::new().route_cache(cache);
            kernel
                .invoke_with(target, "Echo", Value::Int(7), opts)
                .wait()
        }
    }
}

fn call_echo(
    kernel: &Kernel,
    cache: Option<&mut RouteCache>,
    target: Uid,
    _: Uid,
) -> Result<Value> {
    match cache {
        None => kernel.call(target, "Echo", Value::Int(7)),
        Some(cache) => kernel.call_routed(cache, target, "Echo", Value::Int(7)),
    }
}

fn retry_echo(
    kernel: &Kernel,
    cache: Option<&mut RouteCache>,
    target: Uid,
    _: Uid,
) -> Result<Value> {
    let opts = InvokeOptions::new().retry(RetryPolicy::retries(2));
    match cache {
        None => kernel
            .invoke_with(target, "Echo", Value::Int(7), opts)
            .wait(),
        Some(cache) => kernel
            .invoke_with(target, "Echo", Value::Int(7), opts.route_cache(cache))
            .wait(),
    }
}

fn begin_call_echo(
    kernel: &Kernel,
    cache: Option<&mut RouteCache>,
    target: Uid,
    relay: Uid,
) -> Result<Value> {
    let arg = Value::list(vec![Value::Uid(target), Value::Bool(cache.is_some())]);
    kernel.invoke(relay, "Relay", arg).wait()
}

/// What a target is when the measured send reaches it: still active, gone
/// passive (it checkpointed, so the send reactivates it), or gone.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Live,
    Reactivated,
    Vanished,
}

/// The outcome of the measured send (its target's UID written `target`),
/// and what it moved: `invocations`, `successes`, `fatal_failures`,
/// `replies`, the span count, `retries`, the inline handoffs, and the
/// relay's waits for a reply not in when its call returned; and the route
/// cache's hits and misses together.
type Observed = (String, [u64; 8], u64);

/// One send to a target of fate `fate`, after a first send the same way
/// that warms the cache (so a cached send meets a stale route when the
/// target has moved on) — with its first attempt dropped if `dropped`.
fn observe(send: Send, cached: bool, fate: Fate, dropped: bool) -> Observed {
    // One worker: a callee a call enqueues cannot answer the relay before
    // `begin_call` returns.
    let kernel = Kernel::builder()
        .observability(ObsConfig::full())
        .scheduler(SchedulerConfig { workers: 1 })
        .build();
    kernel.register_type("KeptEcho", |_| Ok(Box::new(KeptEcho)));
    let target = match fate {
        Fate::Vanished => kernel.spawn(Box::new(Echo)),
        Fate::Live | Fate::Reactivated => kernel.spawn(Box::new(KeptEcho)),
    }
    .unwrap();
    let waited = Arc::new(AtomicUsize::new(0));
    let relay = Relay {
        cache: RouteCache::new(),
        waited: Arc::clone(&waited),
    };
    let relay = kernel.spawn(Box::new(relay)).unwrap();
    let mut cache = RouteCache::new();
    let mut send_once = || send(&kernel, cached.then_some(&mut cache), target, relay);
    assert_eq!(send_once(), Ok(Value::Int(7)), "warm-up");
    if let Fate::Reactivated = fate {
        kernel
            .invoke(target, ops::CHECKPOINT, Value::Unit)
            .wait()
            .unwrap();
    }
    if let Fate::Reactivated | Fate::Vanished = fate {
        kernel
            .invoke(target, ops::DEACTIVATE, Value::Unit)
            .wait()
            .unwrap();
        assert!(kernel.await_gone(&[target], Duration::from_secs(10)));
    }
    if dropped {
        let drop_first = FaultRule::new(FaultKind::Drop).on_op("Echo").nth(1);
        kernel.install_faults(FaultPlan::new(0).rule(drop_first));
    }
    let (before, spans) = (kernel.metrics().snapshot(), kernel.spans().len());
    let waits = waited.load(Ordering::SeqCst);
    let result = send_once();
    let moved = kernel.metrics().snapshot().since(&before);
    let observed = (
        format!("{result:?}").replace(&format!("{target:?}"), "target"),
        [
            moved.invocations,
            moved.successes,
            moved.fatal_failures,
            moved.replies,
            (kernel.spans().len() - spans) as u64,
            moved.retries,
            moved.inline_handoffs,
            (waited.load(Ordering::SeqCst) - waits) as u64,
        ],
        moved.route_cache_hits + moved.route_cache_misses,
    );
    kernel.shutdown();
    observed
}

#[test]
fn cached_and_registry_sends_cannot_be_told_apart() {
    // Each verb; whether its first attempt is dropped; and what its send to
    // a live target moves, in `Observed`'s order. A retrying call is a call:
    // it runs its callee inline, its reply is in on return, and its ledger
    // settles once. With its first attempt dropped, it settles by a re-send,
    // which is a call too: run inline, its reply in when `try_wait` looks.
    let verbs: [(&str, Send, bool, [u64; 8]); 5] = [
        (
            "invoke / invoke_with(route_cache)",
            invoke_echo,
            false,
            [1, 1, 0, 1, 1, 0, 0, 0],
        ),
        (
            "call / call_routed",
            call_echo,
            false,
            [1, 1, 0, 1, 1, 0, 1, 0],
        ),
        (
            "invoke_with(retry) / + route_cache",
            retry_echo,
            false,
            [1, 1, 0, 1, 1, 0, 0, 0],
        ),
        (
            "begin_call(retry) / + route_cache",
            begin_call_echo,
            false,
            [2, 2, 0, 2, 2, 0, 1, 0],
        ),
        (
            "begin_call(retry), first attempt dropped / + route_cache",
            begin_call_echo,
            true,
            [2, 2, 0, 2, 3, 1, 1, 0],
        ),
    ];
    for (verb, send, dropped, live) in verbs {
        for fate in [Fate::Live, Fate::Reactivated, Fate::Vanished] {
            let (registry_result, registry_moved, registry_routes) =
                observe(send, false, fate, dropped);
            let (cached_result, cached_moved, cached_routes) = observe(send, true, fate, dropped);
            let case = format!("{verb}, {fate:?} target");
            assert_eq!(cached_result, registry_result, "{case}: result");
            // Whether a send ran inline, and so whether the relay waited,
            // may differ: a stale route re-delivers as a plain send.
            assert_eq!(
                cached_moved[..6],
                registry_moved[..6],
                "{case}: [invocations, successes, fatal_failures, replies, spans, retries]"
            );
            // A dropped first attempt never reaches a route; its re-send
            // goes through the registry.
            assert_eq!(
                (registry_routes, cached_routes),
                (0, u64::from(!dropped)),
                "{case}: hits + misses"
            );
        }
        // A callee runs inline only if the send is what wakes it: one still
        // finishing its last resume on a worker, or a spare's, is not parked
        // yet. That run is correct, but says nothing of the call path, and
        // is repeated.
        for cached in [false, true] {
            let mut seen = Vec::new();
            let matched = (0..50).any(|_| {
                seen = observe(send, cached, Fate::Live, dropped).1.to_vec();
                seen == live
            });
            assert!(
                matched,
                "{verb}, cached: {cached}, live target: {seen:?}, not {live:?}"
            );
        }
    }
}

#[test]
fn bounded_mailboxes_deliver_everything_and_shut_down_cleanly() {
    // A tiny mailbox with a slow consumer: senders block on the bound
    // (backpressure), but every invocation is eventually served and the
    // kernel still tears down without deadlock.
    let served = Arc::new(AtomicUsize::new(0));
    let kernel = Kernel::with_config(KernelConfig {
        mailbox_bound: Some((2, ShedPolicy::Park)),
        ..KernelConfig::default()
    });
    let slow = kernel
        .spawn(Box::new(SlowEcho {
            served: served.clone(),
        }))
        .unwrap();

    let mut senders = Vec::new();
    for t in 0..4i64 {
        let kernel = kernel.clone();
        senders.push(std::thread::spawn(move || {
            for i in 0..10i64 {
                let got = kernel
                    .invoke(slow, "Echo", Value::Int(t * 100 + i))
                    .wait()
                    .expect("echo");
                assert_eq!(got, Value::Int(t * 100 + i));
            }
        }));
    }
    for s in senders {
        s.join().expect("sender panicked");
    }
    assert_eq!(served.load(Ordering::SeqCst), 40);
    kernel.shutdown();
}

/// A re-send is the call its first send was: with the first attempt
/// dropped, the re-send that wakes a parked echo which declares
/// `replies_last` runs it on the waiting thread's stack.
#[test]
fn a_resend_to_a_parked_declared_callee_runs_inline() {
    let kernel = Kernel::builder()
        .scheduler(SchedulerConfig { workers: 1 })
        .build();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    // A callee runs inline only if the send is what wakes it, so each run
    // waits for the echo to park: one still finishing its last resume, or
    // not yet given the one worker (on a busy host), is not parked yet.
    let inline = (0..50).any(|_| {
        let parked_by = Instant::now() + Duration::from_secs(10);
        while {
            let sched = kernel.metrics_snapshot().sched;
            sched.parked_ejects != sched.resident_ejects
        } {
            assert!(Instant::now() < parked_by, "the echo never parked");
            std::thread::yield_now();
        }
        let drop_first = FaultRule::new(FaultKind::Drop).on_op("Echo").nth(1);
        kernel.install_faults(FaultPlan::new(0).rule(drop_first));
        let opts = InvokeOptions::new().retry(RetryPolicy::retries(2));
        let before = kernel.metrics().snapshot();
        let got = kernel.invoke_with(echo, "Echo", Value::Int(7), opts).wait();
        let moved = kernel.metrics().snapshot().since(&before);
        assert_eq!(got, Ok(Value::Int(7)));
        assert_eq!(moved.retries, 1);
        moved.inline_handoffs == 1
    });
    assert!(inline, "no re-send ran its callee inline");
    kernel.shutdown();
}

#[test]
fn injected_latency_is_paid_outside_registry_locks() {
    // Eight threads invoke eight distinct Ejects with a 25ms simulated
    // invocation latency. If the sleep happened under a registry lock the
    // calls would serialise (≥ 16 × 25ms); concurrent delivery must land
    // well under that.
    const LATENCY: Duration = Duration::from_millis(25);
    const THREADS: usize = 8;
    const CALLS: usize = 2;
    let kernel = Kernel::new();
    kernel.install_faults(FaultPlan::new(0).rule(FaultRule::new(FaultKind::Delay(LATENCY))));
    let targets: Vec<Uid> = (0..THREADS)
        .map(|_| kernel.spawn(Box::new(Echo)).unwrap())
        .collect();

    let start = Instant::now();
    let mut workers = Vec::new();
    for &target in &targets {
        let kernel = kernel.clone();
        workers.push(std::thread::spawn(move || {
            for i in 0..CALLS as i64 {
                kernel.invoke(target, "Echo", Value::Int(i)).wait().unwrap();
            }
        }));
    }
    for w in workers {
        w.join().expect("worker panicked");
    }
    let elapsed = start.elapsed();
    let serialised = LATENCY * (THREADS * CALLS) as u32;
    // Concurrent delivery lands around 2 × LATENCY (~50ms); fully serial
    // is 400ms. Asserting < 3/4 of serial still rules out serialisation
    // decisively while leaving room for scheduler noise on small or busy
    // CI machines.
    assert!(
        elapsed < serialised * 3 / 4,
        "invocations serialised: {elapsed:?} vs {serialised:?} fully serial"
    );
    kernel.shutdown();
}
