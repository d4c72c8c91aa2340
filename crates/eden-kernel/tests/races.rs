//! Race hammering: the registry paths that are easy to get wrong —
//! concurrent reactivation, crash-vs-invoke, shutdown-vs-traffic.

use std::sync::Arc;
use std::time::Duration;

use eden_core::op::ops;
use eden_core::{EdenError, Value};
use eden_kernel::{
    EjectBehavior, EjectContext, EjectState, Invocation, Kernel, ReplyHandle,
};

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

#[test]
fn concurrent_invocations_reactivate_exactly_once() {
    let kernel = Kernel::new();
    kernel.register_type("Counter", Counter::from_passive);
    let counter = kernel.spawn(Box::new(Counter { count: 0 })).unwrap();
    kernel.invoke(counter, ops::CHECKPOINT, Value::Unit).wait().unwrap();
    kernel.invoke(counter, ops::DEACTIVATE, Value::Unit).wait().unwrap();
    kernel.await_gone(&[counter], Duration::from_secs(5));
    assert_eq!(kernel.eject_state(counter), Some(EjectState::Passive));

    let before = kernel.metrics().snapshot();
    let barrier = Arc::new(std::sync::Barrier::new(16));
    let handles: Vec<_> = (0..16)
        .map(|_| {
            let kernel = kernel.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                kernel.invoke(counter, "Increment", Value::Unit).wait().unwrap()
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let delta = kernel.metrics().snapshot().since(&before);
    assert_eq!(
        delta.activations, 1,
        "exactly one reactivation despite 16 racing invokers"
    );
    let got = kernel.invoke(counter, "Get", Value::Unit).wait().unwrap();
    assert_eq!(got, Value::Int(16), "no increment lost or duplicated");
    kernel.shutdown();
}

#[test]
fn crash_reactivate_cycles_under_load() {
    // Clients hammer a counter while it is repeatedly crashed; every
    // reply must be either a correct reply or a clean fault — and the
    // counter must keep recovering to its checkpoint.
    let kernel = Kernel::new();
    kernel.register_type("Counter", Counter::from_passive);
    let counter = kernel.spawn(Box::new(Counter { count: 0 })).unwrap();
    kernel.invoke(counter, ops::CHECKPOINT, Value::Unit).wait().unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let kernel = kernel.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut faults = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    match kernel.invoke(counter, "Increment", Value::Unit).wait() {
                        Ok(_) => ok += 1,
                        Err(
                            EdenError::EjectCrashed(_)
                            | EdenError::NoSuchEject(_)
                            | EdenError::KernelShutdown,
                        ) => faults += 1,
                        Err(other) => panic!("unexpected error class: {other}"),
                    }
                }
                (ok, faults)
            })
        })
        .collect();
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(5));
        let _ = kernel.crash(counter);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total_ok = 0;
    for c in clients {
        let (ok, _faults) = c.join().unwrap();
        total_ok += ok;
    }
    assert!(total_ok > 0, "some increments must have landed");
    // The counter still answers and its state is a valid roll-back point
    // (>= 0, <= total successful increments).
    let got = kernel
        .invoke(counter, "Get", Value::Unit).wait()
        .unwrap()
        .as_int()
        .unwrap();
    assert!(got >= 0 && got as u64 <= total_ok);
    kernel.shutdown();
}

#[test]
fn eject_lifecycle_soak() {
    // 5000 spawn/use/deactivate cycles: the registry, node table and
    // stable store must end exactly where they started.
    let kernel = Kernel::new();
    for i in 0..5_000i64 {
        let c = kernel.spawn(Box::new(Counter { count: i })).unwrap();
        let got = kernel.invoke(c, "Get", Value::Unit).wait().unwrap();
        assert_eq!(got, Value::Int(i));
        kernel
            .invoke(c, ops::DEACTIVATE, Value::Unit).wait()
            .unwrap();
    }
    for _ in 0..500 {
        if kernel.eject_count() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(kernel.eject_count(), 0, "no registry leaks");
    assert!(kernel.stable_store().is_empty(), "no stray checkpoints");
    kernel.shutdown();
}

#[test]
fn shutdown_under_traffic_terminates() {
    // Shutdown while clients are mid-invocation must converge promptly
    // and leave clients with clean errors.
    let kernel = Kernel::new();
    let echo = kernel
        .spawn(Box::new({
            struct Echo;
            impl EjectBehavior for Echo {
                fn type_name(&self) -> &'static str {
                    "Echo"
                }
                fn handle(&mut self, _: &EjectContext, inv: Invocation, reply: ReplyHandle) {
                    reply.reply(Ok(inv.arg));
                }
            }
            Echo
        }))
        .unwrap();
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let kernel = kernel.clone();
            std::thread::spawn(move || {
                let mut results = 0u64;
                for i in 0..10_000 {
                    match kernel.invoke(echo, "Echo", Value::Int(i)).wait() {
                        Ok(_) => results += 1,
                        Err(EdenError::KernelShutdown | EdenError::EjectCrashed(_)) => break,
                        Err(other) => panic!("unexpected: {other}"),
                    }
                }
                results
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    let t0 = std::time::Instant::now();
    kernel.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown must not stall behind traffic"
    );
    for c in clients {
        c.join().unwrap();
    }
}
