//! The payload-plane benchmark — the `--json` mode's second report,
//! `BENCH_payload.json`.
//!
//! The invocation-plane report ([`crate::json_report`]) tracks the paper's
//! *control* cost (invocations per datum); this one tracks the *data* cost
//! (payload bytes physically moved per datum). Two workloads, each run in
//! two arms:
//!
//! * `pipeline`: a linear write-only pipeline of large records. The
//!   `shared` arm is the zero-copy plane as shipped; the `deep_copy` arm
//!   re-imposes the pre-refactor cost model by deep-copying every record
//!   at every stage, exactly where `Value::clone` used to.
//! * `fanout`: one push source fanning a large-record stream out to
//!   `width` acceptor sinks. The `shared` arm hands every consumer a
//!   reference bump of one batch allocation; the `deep_copy` arm
//!   materialises a private copy per consumer, which is what the old
//!   per-branch `items.clone()` did.
//!
//! The headline invariants: `payload_copies` in the shared arm stays
//! **constant** as fan-out width grows (asserted here), and the shared arm
//! is at least ~2x faster once payloads are large enough that moving bytes
//! dominates moving control (recorded in the JSON, checked across PRs).

use std::time::Instant;

use eden_core::op::ops;
use eden_core::{payload, EdenError, PayloadSnapshot, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, Kernel, ReplyHandle};
use eden_transput::protocol::OUTPUT_NAME;
use eden_transput::source::VecSource;
use eden_transput::transform::{map_fn, Identity};
use eden_transput::{Collector, Discipline, PipelineSpec, WriteRequest};
use eden_transput::{Input, Output, OutputPort, OutputWiring, Stage, StageConfig};

use crate::runner::DEADLINE;

/// Workload dimensions; `smoke()` keeps CI runs to well under a second.
#[derive(Clone, Copy)]
#[derive(Debug)]
pub struct PayloadConfig {
    /// Payload bytes per record body.
    pub record_bytes: usize,
    /// Records per run.
    pub records: usize,
    /// Stages in the linear pipeline section.
    pub depth: usize,
    /// Fan-out widths measured, ascending.
    pub widths: [usize; 4],
    /// Records per batch on every hop.
    pub batch: usize,
}

impl PayloadConfig {
    /// The full-size configuration: payloads large enough that moving
    /// bytes dominates moving control.
    pub fn full() -> PayloadConfig {
        PayloadConfig {
            record_bytes: 1 << 20,
            records: 32,
            depth: 3,
            widths: [1, 2, 4, 8],
            batch: 4,
        }
    }

    /// The smoke configuration: same shape, small enough for CI.
    pub fn smoke() -> PayloadConfig {
        PayloadConfig {
            record_bytes: 16 << 10,
            records: 8,
            depth: 3,
            widths: [1, 2, 4, 8],
            batch: 4,
        }
    }
}

/// One measured arm: wall time plus the payload counters it moved.
#[derive(Debug)]
pub struct ArmStats {
    wall_seconds: f64,
    /// What the process-wide payload meters read after the arm, less what
    /// they read before it.
    pub delta: PayloadSnapshot,
}

impl ArmStats {
    fn measure<F: FnOnce()>(run: F) -> ArmStats {
        let before = payload::snapshot();
        let t0 = Instant::now();
        run();
        let wall_seconds = t0.elapsed().as_secs_f64();
        ArmStats {
            wall_seconds,
            delta: payload::snapshot().since(&before),
        }
    }
}

/// A passive sink for the fan-out arms. In `deep_copy` mode it privately
/// copies every record on arrival — reproducing the bytes-moved profile of
/// the pre-refactor fan-out, where every branch received its own deep copy
/// of the batch — while keeping the invocation count identical to the
/// shared arm, so the two arms differ *only* in payload movement.
struct PayloadSinkEject {
    collector: Collector,
    deep_copy: bool,
    ended: bool,
}

impl PayloadSinkEject {
    fn new(collector: Collector, deep_copy: bool) -> PayloadSinkEject {
        PayloadSinkEject {
            collector,
            deep_copy,
            ended: false,
        }
    }
}

impl EjectBehavior for PayloadSinkEject {
    fn type_name(&self) -> &'static str {
        "PayloadSink"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            ops::WRITE => match WriteRequest::from_value(inv.arg) {
                Ok(w) => {
                    if !w.items.is_empty() {
                        let items = if self.deep_copy {
                            w.items.iter().map(Value::deep_copy).collect()
                        } else {
                            w.items
                        };
                        self.collector.append(items);
                    }
                    if w.end && !self.ended {
                        self.ended = true;
                        self.collector.finish();
                    }
                    reply.reply(Ok(Value::Unit));
                }
                Err(e) => reply.reply(Err(e)),
            },
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

/// One large record: a `body` of `bytes` payload plus a sequence number.
fn large_record(seq: i64, bytes: usize) -> Value {
    Value::record([
        ("seq", Value::Int(seq)),
        ("body", Value::str("x".repeat(bytes))),
    ])
}

fn workload(cfg: &PayloadConfig) -> Vec<Value> {
    (0..cfg.records as i64)
        .map(|i| large_record(i, cfg.record_bytes))
        .collect()
}

/// The linear-pipeline arms: `depth` stages of either `Identity` (shared)
/// or an explicit per-stage deep copy (the pre-refactor cost model).
fn pipeline_arm(cfg: &PayloadConfig, deep_copy: bool) -> ArmStats {
    let kernel = Kernel::new();
    let mut builder = PipelineSpec::new(Discipline::WriteOnly { push_ahead: 4 })
        .source_vec(workload(cfg))
        .batch(cfg.batch);
    for _ in 0..cfg.depth {
        builder = if deep_copy {
            builder.stage(Box::new(map_fn("deep-copy", |v| v.deep_copy())))
        } else {
            builder.stage(Box::new(Identity))
        };
    }
    let pipeline = builder.build(&kernel).expect("pipeline builds");
    let records = cfg.records as u64;
    let stats = ArmStats::measure(|| {
        let run = pipeline.run(DEADLINE).expect("pipeline completes");
        assert_eq!(run.records_out, records, "pipeline lost records");
    });
    kernel.shutdown();
    stats
}

/// The fan-out arms: source → identity filter → `width` acceptor sinks.
pub fn fanout_arm(cfg: &PayloadConfig, width: usize, deep_copy: bool) -> ArmStats {
    let kernel = Kernel::new();
    let mut wiring = OutputWiring::default();
    let mut collectors = Vec::with_capacity(width);
    for _ in 0..width {
        let collector = Collector::new();
        let sink = kernel
            .spawn(Box::new(PayloadSinkEject::new(collector.clone(), deep_copy)))
            .expect("sink spawns");
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink));
        collectors.push(collector);
    }
    let filter = kernel
        .spawn(Box::new(Stage::filter(
            Input::Passive,
            Box::new(Identity),
            Output::Active(wiring),
            StageConfig::default(),
        )))
        .expect("filter spawns");
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::new(workload(cfg)))),
            Output::push(filter),
            StageConfig::batch(cfg.batch),
        )))
        .expect("source spawns");
    let records = cfg.records;
    let stats = ArmStats::measure(|| {
        kernel
            .invoke(source, "Start", Value::Unit).wait()
            .expect("fan-out completes");
        for c in &collectors {
            let got = c.wait_done(DEADLINE).expect("branch completes");
            assert_eq!(got.len(), records, "fan-out branch lost records");
        }
    });
    kernel.shutdown();
    stats
}

fn json_arm(arm: &ArmStats) -> String {
    format!(
        concat!(
            "{{ \"wall_seconds\": {:.6}, \"payload_bytes_moved\": {}, ",
            "\"payload_copies\": {}, \"cow_breaks\": {}, \"payload_shares\": {} }}"
        ),
        arm.wall_seconds,
        arm.delta.payload_bytes_moved,
        arm.delta.payload_copies,
        arm.delta.cow_breaks,
        arm.delta.payload_shares,
    )
}

/// Run the payload-plane measurements and render `BENCH_payload.json`.
///
/// Panics if the structural invariant fails: the shared arm's
/// `payload_copies` must not grow with fan-out width.
pub fn payload_report(cfg: &PayloadConfig) -> String {
    let pipe_shared = pipeline_arm(cfg, false);
    let pipe_deep = pipeline_arm(cfg, true);

    let mut fan_rows = Vec::new();
    let mut shared_copies = Vec::new();
    for &width in &cfg.widths {
        let shared = fanout_arm(cfg, width, false);
        let deep = fanout_arm(cfg, width, true);
        shared_copies.push(shared.delta.payload_copies);
        fan_rows.push(format!(
            concat!(
                "    {{\n",
                "      \"width\": {},\n",
                "      \"shared\": {},\n",
                "      \"deep_copy\": {},\n",
                "      \"speedup\": {:.2}\n",
                "    }}"
            ),
            width,
            json_arm(&shared),
            json_arm(&deep),
            deep.wall_seconds / shared.wall_seconds.max(f64::EPSILON),
        ));
    }
    // The tentpole invariant: sharing makes the copy count independent of
    // the number of consumers. (The deep-copy arm's own copies land in
    // *its* delta, so the shared deltas must all agree exactly.)
    let first = shared_copies[0];
    assert!(
        shared_copies.iter().all(|&c| c == first),
        "shared-arm payload_copies varies with fan-out width: {shared_copies:?}"
    );

    let widest = fan_rows.len() - 1;
    let wide_shared = fanout_arm(cfg, cfg.widths[widest], false);
    let wide_deep = fanout_arm(cfg, cfg.widths[widest], true);
    format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"record_bytes\": {rb},\n",
            "  \"records\": {rc},\n",
            "  \"batch\": {batch},\n",
            "  \"pipeline\": {{\n",
            "    \"depth\": {depth},\n",
            "    \"shared\": {ps},\n",
            "    \"deep_copy\": {pd},\n",
            "    \"speedup\": {psp:.2}\n",
            "  }},\n",
            "  \"fanout\": [\n{fans}\n  ],\n",
            "  \"fanout_at_width_{ww}\": {{\n",
            "    \"shared\": {ws},\n",
            "    \"deep_copy\": {wd},\n",
            "    \"speedup\": {wsp:.2}\n",
            "  }},\n",
            "  \"shared_copies_constant_across_widths\": true\n",
            "}}\n"
        ),
        rb = cfg.record_bytes,
        rc = cfg.records,
        batch = cfg.batch,
        depth = cfg.depth,
        ps = json_arm(&pipe_shared),
        pd = json_arm(&pipe_deep),
        psp = pipe_deep.wall_seconds / pipe_shared.wall_seconds.max(f64::EPSILON),
        fans = fan_rows.join(",\n"),
        ww = cfg.widths[widest],
        ws = json_arm(&wide_shared),
        wd = json_arm(&wide_deep),
        wsp = wide_deep.wall_seconds / wide_shared.wall_seconds.max(f64::EPSILON),
    )
}
