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
use eden::core::{EdenError, Uid, Value};
use eden::filters::LineNumber;
use eden::fs::{register_fs_types, FileEject};
use eden::kernel::{
    EjectBehavior, EjectContext, Invocation, InvokeOptions, Kernel, KernelConfig, ReplyHandle,
    RouteCache,
};
use eden::transput::protocol::{Batch, TransferRequest};
use eden::transput::recovery::{install_recovery, recoverable_filter, TransformRegistry};

/// Replies to `Echo` with its argument.
struct Echo;

impl EjectBehavior for Echo {
    fn type_name(&self) -> &'static str {
        "Echo"
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
        .invoke(file, "OpenDurable", Value::Unit).wait()
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
            .invoke_with(echo, "Echo", Value::Int(i), InvokeOptions::new().route_cache(&mut cache))
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

#[test]
fn bounded_mailboxes_deliver_everything_and_shut_down_cleanly() {
    // A tiny mailbox with a slow consumer: senders block on the bound
    // (backpressure), but every invocation is eventually served and the
    // kernel still tears down without deadlock.
    let served = Arc::new(AtomicUsize::new(0));
    let kernel = Kernel::with_config(KernelConfig {
        mailbox_capacity: Some(2),
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
                    .invoke(slow, "Echo", Value::Int(t * 100 + i)).wait()
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

#[test]
fn injected_latency_is_paid_outside_registry_locks() {
    // Eight threads invoke eight distinct Ejects with a 25ms simulated
    // invocation latency. If the sleep happened under a registry lock the
    // calls would serialise (≥ 16 × 25ms); concurrent delivery must land
    // well under that.
    const LATENCY: Duration = Duration::from_millis(25);
    const THREADS: usize = 8;
    const CALLS: usize = 2;
    let kernel = Kernel::with_config(KernelConfig {
        invocation_latency: Some(LATENCY),
        ..KernelConfig::default()
    });
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
