//! Laziness and read-ahead (§4).
//!
//! "In both cases no computation need be done until the result is
//! requested... No data flows until a sink is connected to the pipeline."
//! And the refinement: "each Eject in a pipeline should read some input
//! and buffer-up some output, and then suspend processing pending a
//! request for output."
//!
//! This example watches a counter inside the source: with a lazy pipeline
//! nothing is pulled until the sink attaches; with read-ahead, a bounded
//! amount is pre-pulled and no more.
//!
//! Run with: `cargo run --example lazy_pipeline`

use std::sync::atomic::Ordering;
use std::time::Duration;

use eden::core::Value;
use eden::kernel::Kernel;
use eden::transput::collector::Collector;
use eden::transput::source::{CountingSource, VecSource};
use eden::transput::transform::map_fn;
use eden::transput::{Input, Output, Stage, StageConfig};

fn main() {
    let kernel = Kernel::new();
    println!("== laziness: no data flows until a sink connects ==\n");

    // A source that counts every record pulled out of it.
    let (counting, pulled) =
        CountingSource::new(VecSource::new((0..1000).map(Value::Int).collect()));
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(counting)),
            Output::Passive,
            StageConfig::default(),
        )))
        .expect("spawn source");

    // A lazy filter chain — active input happens only on demand.
    let square = map_fn("square", |v| {
        let i = v.as_int().unwrap_or(0);
        Value::Int(i * i)
    });
    let filter = kernel
        .spawn(Box::new(Stage::filter(
            Input::pull(source),
            Box::new(square),
            Output::Passive,
            StageConfig::default(),
        )))
        .expect("spawn filter");

    std::thread::sleep(Duration::from_millis(100));
    println!(
        "pipeline built, no sink attached: {} record(s) pulled from the source",
        pulled.load(Ordering::Relaxed)
    );
    assert_eq!(pulled.load(Ordering::Relaxed), 0);

    // Attach the sink — "rather like starting a pump".
    let collector = Collector::null();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(filter),
            Output::Collector(collector.clone()),
            StageConfig::batch(64),
        )))
        .expect("spawn sink");
    collector
        .wait_done(Duration::from_secs(10))
        .expect("stream completes");
    println!(
        "sink attached and drained: {} record(s) pulled\n",
        pulled.load(Ordering::Relaxed)
    );

    println!("== read-ahead: bounded anticipation, then suspension ==\n");
    let (counting, pulled) =
        CountingSource::new(VecSource::new((0..1000).map(Value::Int).collect()));
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(counting)),
            Output::Passive,
            StageConfig::default(),
        )))
        .expect("spawn source");
    let read_ahead = 32;
    let _filter = kernel
        .spawn(Box::new(Stage::filter(
            Input::pull(source),
            Box::new(map_fn("id", |v| v)),
            Output::Passive,
            StageConfig {
                depth: read_ahead,
                batch: 8,
                ..Default::default()
            },
        )))
        .expect("spawn read-ahead filter");
    std::thread::sleep(Duration::from_millis(200));
    let pre = pulled.load(Ordering::Relaxed);
    println!("filter with read_ahead={read_ahead}, no sink: pre-pulled {pre} record(s)");
    assert!(pre > 0, "read-ahead must prefetch");
    assert!(
        pre <= read_ahead as u64 + 8,
        "prefetch must stay near the credit bound"
    );
    std::thread::sleep(Duration::from_millis(200));
    let later = pulled.load(Ordering::Relaxed);
    println!("after another 200ms: {later} record(s) — anticipation is bounded, not a pump");
    assert_eq!(pre, later);

    kernel.shutdown();
    println!("\nLazy filters are pure transformers; the sink is the pump (§4).");
}
