//! Tracing: the kernel's one record of what happened — spans and lifecycle
//! events in the observability plane's store — observed end to end.

use eden_core::{EdenError, Uid, Value};
use eden_kernel::{
    render_events, EjectBehavior, EjectContext, Invocation, Kernel, KernelConfig, Lifecycle,
    NodeId, ObsConfig, ReplyHandle,
};

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

fn traced_kernel() -> Kernel {
    Kernel::with_config(KernelConfig {
        observability: ObsConfig::full(),
        ..Default::default()
    })
}

#[test]
fn invocations_appear_in_the_trace() {
    let kernel = traced_kernel();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    for _ in 0..3 {
        kernel.invoke(echo, "Echo", Value::Unit).wait().unwrap();
    }
    let spans = kernel.spans();
    assert_eq!(spans.iter().filter(|s| s.target == echo).count(), 3);
    // Activation is traced too.
    let (lifecycle, evicted) = kernel.lifecycle();
    assert_eq!(evicted, 0);
    assert!(lifecycle
        .iter()
        .any(|l| l.event == Lifecycle::Activate { uid: echo, type_name: "Echo" }));
    kernel.shutdown();
}

#[test]
fn per_target_tallies() {
    let kernel = traced_kernel();
    let busy = kernel.spawn(Box::new(Echo)).unwrap();
    let quiet = kernel.spawn(Box::new(Echo)).unwrap();
    for _ in 0..5 {
        kernel.invoke(busy, "Echo", Value::Unit).wait().unwrap();
    }
    kernel.invoke(quiet, "Echo", Value::Unit).wait().unwrap();
    // One operation an Eject, so the stage table is the per-target tally.
    let tallies: Vec<(Uid, u64)> = kernel
        .stage_summaries()
        .iter()
        .map(|stage| (stage.target, stage.count))
        .collect();
    assert_eq!(tallies, [(busy, 5), (quiet, 1)]);
    kernel.shutdown();
}

#[test]
fn crash_is_traced_as_stop() {
    let kernel = traced_kernel();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    kernel.crash(echo).unwrap();
    assert!(kernel
        .lifecycle()
        .0
        .iter()
        .any(|l| l.event == Lifecycle::Stop { uid: echo, crashed: true }));
    kernel.shutdown();
}

#[test]
fn remote_invocations_render_remote() {
    let kernel = traced_kernel();
    let far = kernel.spawn_on(NodeId(2), Box::new(Echo)).unwrap();
    kernel.invoke(far, "Echo", Value::Unit).wait().unwrap();
    let rendered = render_events(&kernel.spans(), &kernel.lifecycle().0);
    assert!(
        rendered.iter().any(|l| l.contains("invoke Echo") && l.contains("remote")),
        "trace: {rendered:?}"
    );
    assert!(rendered[0].contains("activate"), "trace: {rendered:?}");
    kernel.shutdown();
}

#[test]
fn tracing_disabled_by_default() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    kernel.invoke(echo, "Echo", Value::Unit).wait().unwrap();
    kernel.crash(echo).unwrap();
    assert!(kernel.spans().is_empty());
    assert_eq!(kernel.lifecycle(), (Vec::new(), 0));
    assert!(kernel.stage_summaries().is_empty());
    kernel.shutdown();
}

/// What `benchmark/`'s traced repetitions rely on: they size the span store
/// for their invocations only, spawn far more Ejects than that, and fail the
/// run if a single span was dropped.
#[test]
fn lifecycle_events_never_evict_a_span() {
    const SHARDS: usize = 16;
    const C: usize = 64; // per-shard capacity
    let kernel = Kernel::with_config(KernelConfig {
        observability: ObsConfig {
            spans: true,
            histograms: false,
            span_capacity: C * SHARDS,
        },
        ..Default::default()
    });
    let ejects: Vec<Uid> = (0..10 * C)
        .map(|_| kernel.spawn(Box::new(Echo)).unwrap())
        .collect();
    for target in &ejects[..C / 2] {
        kernel.invoke(*target, "Echo", Value::Unit).wait().unwrap();
    }
    assert_eq!(kernel.spans_dropped(), 0);
    assert_eq!(kernel.spans().len(), C / 2);
    assert_eq!(kernel.metrics_snapshot().spans_recorded, (C / 2) as u64);
    // Every activation was recorded from this thread, so into one shard's
    // ring: it holds the newest `C` and counts the rest.
    let (held, evicted) = kernel.lifecycle();
    assert!(held.len() <= C, "{} lifecycle records held", held.len());
    assert_eq!(held.len() as u64 + evicted, (10 * C) as u64);
    kernel.shutdown();
}
