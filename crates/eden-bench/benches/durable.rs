//! Ablation: what does durability cost?
//!
//! A recoverable filter checkpoints before it acknowledges every Transfer;
//! this bench compares it against the plain (volatile) lazy filter over the
//! same source, and measures the checkpoint-every-operation tax directly.

use std::time::Duration as BenchDuration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eden_core::op::ops;
use eden_core::Value;
use eden_filters::LineNumber;
use eden_kernel::Kernel;
use eden_transput::protocol::{Batch, TransferRequest};
use eden_transput::recovery::{install_recovery, recoverable_filter, TransformRegistry};
use eden_transput::source::VecSource;
use eden_transput::{Input, Output, Stage, StageConfig};

const RECORDS: i64 = 500;

fn drain(kernel: &Kernel, filter: eden_core::Uid, batch: usize) -> usize {
    let mut total = 0;
    loop {
        // The volatile stage ignores the position; the recoverable one
        // needs it.
        let b = Batch::from_value(
            kernel
                .invoke(
                    filter,
                    ops::TRANSFER,
                    TransferRequest::primary(batch).at(total as u64).to_value(),
                )
                .wait()
                .expect("transfer"),
        )
        .expect("batch");
        total += b.items.len();
        if b.end {
            break;
        }
    }
    total
}

fn source(kernel: &Kernel) -> eden_core::Uid {
    kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::new(
                (0..RECORDS)
                    .map(|i| Value::str(format!("line {i}")))
                    .collect(),
            ))),
            Output::Passive,
            StageConfig::default(),
        )))
        .expect("source")
}

fn durable_vs_volatile(c: &mut Criterion) {
    let kernel = Kernel::new();
    let registry = TransformRegistry::new(&[("line-number", || Box::new(LineNumber::new()))]);
    install_recovery(&kernel, &registry);
    let mut group = c.benchmark_group("durable_filter");
    group.sample_size(10);
    group.warm_up_time(BenchDuration::from_millis(400));
    group.measurement_time(BenchDuration::from_secs(2));
    for batch in [8usize, 64] {
        group.bench_function(BenchmarkId::new("volatile", batch), |b| {
            b.iter(|| {
                let src = source(&kernel);
                let filter = kernel
                    .spawn(Box::new(Stage::filter(
                        Input::pull(src),
                        Box::new(LineNumber::new()),
                        Output::Passive,
                        StageConfig::default(),
                    )))
                    .expect("filter");
                let total = drain(&kernel, filter, batch);
                assert_eq!(total, RECORDS as usize);
                for uid in [src, filter] {
                    let _ = kernel.invoke(uid, ops::DEACTIVATE, Value::Unit);
                }
            })
        });
        group.bench_function(BenchmarkId::new("durable_ckpt_every_op", batch), |b| {
            b.iter(|| {
                let src = source(&kernel);
                let filter = kernel
                    .spawn(
                        recoverable_filter("line-number", &registry, src, batch)
                            .expect("recoverable filter"),
                    )
                    .expect("spawn");
                let total = drain(&kernel, filter, batch);
                assert_eq!(total, RECORDS as usize);
                // The recoverable filter checkpointed, so deactivation leaves
                // a passive representation; remove it to keep the store flat.
                for uid in [src, filter] {
                    let _ = kernel.invoke(uid, ops::DEACTIVATE, Value::Unit);
                }
                kernel.stable_store().remove(filter);
            })
        });
    }
    group.finish();
    kernel.shutdown();
}

criterion_group!(benches, durable_vs_volatile);
criterion_main!(benches);
