//! Benchmarks for E4: fan-in merges (read-only) and fan-out broadcasts
//! (write-only, and read-only via Tee channels).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eden_core::Value;
use eden_kernel::Kernel;
use eden_transput::collector::Collector;
use eden_transput::protocol::OUTPUT_NAME;
use eden_transput::source::VecSource;
use eden_transput::transform::Identity;
use eden_transput::{
    FanInMode, Input, InputPort, Output, OutputPort, OutputWiring, Stage, StageConfig,
};
use std::time::Duration as BenchDuration;

const WAIT: Duration = Duration::from_secs(60);
const PER_SOURCE: i64 = 200;

fn fan_in(kernel: &Kernel, m: usize) {
    let inputs: Vec<InputPort> = (0..m as i64)
        .map(|i| {
            let src = kernel
                .spawn(Box::new(Stage::new(
                    Input::Local(Box::new(VecSource::new(
                        (i * 1000..i * 1000 + PER_SOURCE).map(Value::Int).collect(),
                    ))),
                    Output::Passive,
                    StageConfig::default(),
                )))
                .expect("source");
            InputPort::primary(src)
        })
        .collect();
    let filter = kernel
        .spawn(Box::new(Stage::filter(
            Input::ports(inputs, FanInMode::RoundRobin),
            Box::new(Identity),
            Output::Passive,
            StageConfig::batch(16),
        )))
        .expect("filter");
    let c = Collector::null();
    let sink = kernel
        .spawn(Box::new(Stage::new(
            Input::pull(filter),
            Output::Collector(c.clone()),
            StageConfig::batch(16),
        )))
        .expect("sink");
    c.wait_done(WAIT).expect("merge");
    assert_eq!(c.records_seen(), (m as i64 * PER_SOURCE) as u64);
    for uid in [filter, sink] {
        let _ = kernel.invoke(uid, eden_core::op::ops::DEACTIVATE, Value::Unit);
    }
}

fn fan_out(kernel: &Kernel, m: usize) {
    let collectors: Vec<Collector> = (0..m).map(|_| Collector::null()).collect();
    let mut wiring = OutputWiring::default();
    let mut ejects = Vec::new();
    for c in &collectors {
        let sink = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Collector(c.clone()),
                StageConfig::default(),
            )))
            .expect("acceptor");
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink));
        ejects.push(sink);
    }
    let filter = kernel
        .spawn(Box::new(Stage::filter(
            Input::Passive,
            Box::new(Identity),
            Output::Active(wiring),
            StageConfig::default(),
        )))
        .expect("filter");
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::new(
                (0..PER_SOURCE).map(Value::Int).collect(),
            ))),
            Output::push(filter),
            StageConfig::batch(16),
        )))
        .expect("source");
    kernel
        .invoke(source, "Start", Value::Unit)
        .wait()
        .expect("start");
    for c in &collectors {
        c.wait_done(WAIT).expect("copy");
        assert_eq!(c.records_seen(), PER_SOURCE as u64);
    }
    ejects.push(filter);
    ejects.push(source);
    for uid in ejects {
        let _ = kernel.invoke(uid, eden_core::op::ops::DEACTIVATE, Value::Unit);
    }
}

fn fan(c: &mut Criterion) {
    let kernel = Kernel::new();
    let mut group = c.benchmark_group("fan");
    group.sample_size(10);
    group.warm_up_time(BenchDuration::from_millis(400));
    group.measurement_time(BenchDuration::from_secs(2));
    for m in [2usize, 8] {
        group.bench_function(BenchmarkId::new("read_only_fan_in", m), |b| {
            b.iter(|| fan_in(&kernel, m))
        });
        group.bench_function(BenchmarkId::new("write_only_fan_out", m), |b| {
            b.iter(|| fan_out(&kernel, m))
        });
    }
    group.finish();
    kernel.shutdown();
}

criterion_group!(benches, fan);
criterion_main!(benches);
