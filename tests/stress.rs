//! Stress: configurations well beyond the paper's figures — deep
//! pipelines, many concurrent pipelines on one kernel, large records,
//! byte-stream bridging — to shake out deadlocks and leaks the small
//! cases cannot reach.

use std::time::Duration;

use eden::core::Value;
use eden::kernel::Kernel;
use eden::transput::bytestream::{concat_bytes, BytesSource, LineJoiner, LineSplitter, Rechunker};
use eden::transput::transform::{map_fn, Identity};
use eden::transput::{Discipline, PipelineSpec};

#[test]
fn very_deep_pipeline() {
    // 48 stages; the analytic invocation count (n+1 per datum) must still
    // hold exactly, and nothing may deadlock.
    let kernel = Kernel::new();
    let depth = 48usize;
    let items = 50i64;
    let mut builder = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
        .source_vec((0..items).map(Value::Int).collect())
        .batch(1);
    for _ in 0..depth {
        builder = builder.stage(Box::new(Identity));
    }
    let run = builder
        .build(&kernel)
        .unwrap()
        .run(Duration::from_secs(60))
        .unwrap();
    assert_eq!(run.records_out, items as u64);
    assert_eq!(run.entities, depth + 2);
    assert_eq!(run.metrics.invocations, (depth as u64 + 1) * items as u64);
    assert_eq!(kernel.eject_count(), 0);
    kernel.shutdown();
}

#[test]
fn deep_concurrent_pipeline_all_disciplines() {
    let kernel = Kernel::new();
    for discipline in [
        Discipline::ReadOnly { read_ahead: 16 },
        Discipline::WriteOnly { push_ahead: 8 },
        Discipline::Conventional { buffer_capacity: 4 },
    ] {
        let mut builder = PipelineSpec::new(discipline)
            .source_vec((0..500).map(Value::Int).collect())
            .batch(8)
            .null_sink();
        for _ in 0..24 {
            builder = builder.stage(Box::new(Identity));
        }
        let run = builder
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(60))
            .unwrap();
        assert_eq!(run.records_out, 0); // Null sink keeps no items...
        kernel.shutdown_check(discipline);
    }
    kernel.shutdown();
}

trait ShutdownCheck {
    fn shutdown_check(&self, discipline: Discipline);
}

impl ShutdownCheck for Kernel {
    fn shutdown_check(&self, discipline: Discipline) {
        assert_eq!(
            self.eject_count(),
            0,
            "pipeline leak under {}",
            discipline.label()
        );
    }
}

#[test]
fn null_sink_counts_via_collector() {
    let kernel = Kernel::new();
    let pipeline = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
        .source_vec((0..100).map(Value::Int).collect())
        .null_sink()
        .build(&kernel)
        .unwrap();
    let collector = pipeline.collector().expect("a collector sink").clone();
    let run = pipeline.run(Duration::from_secs(30)).unwrap();
    assert!(run.output.is_empty());
    assert_eq!(collector.records_seen(), 100);
    kernel.shutdown();
}

#[test]
fn many_concurrent_pipelines_share_one_kernel() {
    let kernel = Kernel::new();
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let kernel = kernel.clone();
            std::thread::spawn(move || {
                let run = PipelineSpec::new(if i % 2 == 0 {
                    Discipline::ReadOnly { read_ahead: 8 }
                } else {
                    Discipline::WriteOnly { push_ahead: 8 }
                })
                .source_vec((0..300).map(|j| Value::Int(i * 1000 + j)).collect())
                .stage(Box::new(map_fn("inc", |v| {
                    Value::Int(v.as_int().unwrap_or(0) + 1)
                })))
                .stage(Box::new(Identity))
                .batch(16)
                .build(&kernel)
                .unwrap()
                .run(Duration::from_secs(60))
                .unwrap();
                assert_eq!(run.records_out, 300);
                assert_eq!(run.output[0], Value::Int(i * 1000 + 1));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("pipeline thread");
    }
    assert_eq!(kernel.eject_count(), 0, "all pipelines must tear down");
    kernel.shutdown();
}

#[test]
fn large_records_flow() {
    // 1 MiB of payload through a byte pipeline with splitting/joining.
    let kernel = Kernel::new();
    let mut text = String::new();
    for i in 0..8_192 {
        text.push_str(&format!("line number {i} with some padding text\n"));
    }
    let original = text.clone().into_bytes();
    let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 4 })
        .source(Box::new(BytesSource::new(original.clone(), 4096)))
        .stage(Box::new(LineSplitter::new()))
        .stage(Box::new(LineJoiner::new()))
        .stage(Box::new(Rechunker::new(1024)))
        .batch(8)
        .build(&kernel)
        .unwrap()
        .run(Duration::from_secs(60))
        .unwrap();
    let rebuilt = concat_bytes(run.output.iter());
    assert_eq!(rebuilt.len(), original.len());
    assert_eq!(rebuilt.as_ref(), original.as_slice());
    assert!(run.metrics.bytes_total() as usize >= 2 * original.len());
    kernel.shutdown();
}

#[test]
fn repeated_build_teardown_cycles() {
    // 100 build/run/teardown cycles on one kernel: no Eject accumulation.
    let kernel = Kernel::new();
    for i in 0..100 {
        let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_vec((0..5).map(Value::Int).collect())
            .stage(Box::new(Identity))
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(30))
            .unwrap();
        assert_eq!(run.records_out, 5, "cycle {i}");
    }
    assert_eq!(kernel.eject_count(), 0);
    kernel.shutdown();
}
