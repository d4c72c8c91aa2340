//! The fan-in / fan-out duality of §5, measured:
//!
//! | discipline   | fan-in | fan-out |
//! |--------------|--------|---------|
//! | read-only    | natural | only via channels |
//! | write-only   | impossible (writers indistinguishable) | natural |
//! | conventional | natural | natural |

use std::time::Duration;

use eden::core::op::ops;
use eden::core::Value;
use eden::filters::Tee;
use eden::kernel::Kernel;
use eden::transput::collector::Collector;
use eden::transput::protocol::{ChannelId, GetChannelRequest, WriteRequest};
use eden::transput::source::VecSource;
use eden::transput::transform::Identity;
use eden::transput::{
    FanInMode, Input, InputPort, Output, OutputPort, OutputWiring, Stage, StageConfig,
};

fn int_source(kernel: &Kernel, values: std::ops::Range<i64>) -> eden::core::Uid {
    kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::new(values.map(Value::Int).collect()))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap()
}

#[test]
fn read_only_fan_in_merges_m_sources() {
    // "If F needs n inputs, it maintains n UIDs" — concatenating and
    // round-robin merges of three sources.
    let kernel = Kernel::new();
    for (mode, expected_concat) in [
        (FanInMode::Concatenate, true),
        (FanInMode::RoundRobin, false),
    ] {
        let inputs = vec![
            InputPort::primary(int_source(&kernel, 0..3)),
            InputPort::primary(int_source(&kernel, 10..13)),
            InputPort::primary(int_source(&kernel, 20..23)),
        ];
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::ports(inputs, mode),
                Box::new(Identity),
                Output::Passive,
                StageConfig::batch(1),
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(filter),
                Output::Collector(collector.clone()),
                StageConfig::batch(1),
            )))
            .unwrap();
        let got = collector.wait_done(Duration::from_secs(15)).unwrap();
        assert_eq!(got.len(), 9, "{mode:?}");
        if expected_concat {
            assert_eq!(
                got.iter().map(|v| v.as_int().unwrap()).collect::<Vec<_>>(),
                vec![0, 1, 2, 10, 11, 12, 20, 21, 22]
            );
        } else {
            // Round robin: 0,10,20,1,11,21,2,12,22.
            assert_eq!(
                got.iter().map(|v| v.as_int().unwrap()).collect::<Vec<_>>(),
                vec![0, 10, 20, 1, 11, 21, 2, 12, 22]
            );
        }
    }
    kernel.shutdown();
}

#[test]
fn read_only_without_channels_cannot_fan_out() {
    // "Arranging for two or more Ejects to make Read invocations on F does
    // not help: F cannot distinguish this from one Eject making the same
    // total number of Read invocations." Two sinks on the same primary
    // channel split the stream instead of each receiving a copy.
    let kernel = Kernel::new();
    let source = int_source(&kernel, 0..100);
    let filter = kernel
        .spawn(Box::new(Stage::filter(
            Input::pull(source),
            Box::new(Identity),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let c1 = Collector::new();
    let c2 = Collector::new();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(filter),
            Output::Collector(c1.clone()),
            StageConfig::batch(4),
        )))
        .unwrap();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(filter),
            Output::Collector(c2.clone()),
            StageConfig::batch(4),
        )))
        .unwrap();
    let got1 = c1.wait_done(Duration::from_secs(15)).unwrap();
    let got2 = c2.wait_done(Duration::from_secs(15)).unwrap();
    // Split, not duplicated: together they hold each record exactly once.
    assert_eq!(got1.len() + got2.len(), 100);
    let mut merged: Vec<i64> = got1
        .iter()
        .chain(got2.iter())
        .map(|v| v.as_int().unwrap())
        .collect();
    merged.sort_unstable();
    assert_eq!(merged, (0..100).collect::<Vec<_>>());
    kernel.shutdown();
}

#[test]
fn read_only_fan_out_via_tee_channels() {
    // The §5 fix: explicit channels. Tee emits on `Copy`; two sinks read
    // two *different* channels and each gets the full stream.
    let kernel = Kernel::new();
    let source = int_source(&kernel, 0..20);
    let filter = kernel
        .spawn(Box::new(Stage::filter(
            Input::pull(source),
            Box::new(Tee),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let copy_id = ChannelId::try_from(
        &kernel
            .invoke(
                filter,
                ops::GET_CHANNEL,
                GetChannelRequest {
                    name: eden::filters::COPY_NAME.to_owned(),
                }
                .to_value(),
            )
            .wait()
            .unwrap(),
    )
    .unwrap();
    let main = Collector::new();
    let copy = Collector::new();
    kernel
        .spawn(Box::new(Stage::new(
            Input::ports(
                vec![InputPort {
                    uid: filter,
                    channel: copy_id,
                }],
                FanInMode::Concatenate,
            ),
            Output::Collector(copy.clone()),
            StageConfig::batch(4),
        )))
        .unwrap();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(filter),
            Output::Collector(main.clone()),
            StageConfig::batch(4),
        )))
        .unwrap();
    let main_items = main.wait_done(Duration::from_secs(15)).unwrap();
    let copy_items = copy.wait_done(Duration::from_secs(15)).unwrap();
    assert_eq!(main_items.len(), 20);
    assert_eq!(main_items, copy_items);
    kernel.shutdown();
}

#[test]
fn write_only_fan_out_is_natural() {
    let kernel = Kernel::new();
    let mut collectors = Vec::new();
    let mut wiring = OutputWiring::default();
    for _ in 0..3 {
        let c = Collector::new();
        let sink = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Collector(c.clone()),
                StageConfig::default(),
            )))
            .unwrap();
        wiring.add(
            eden::transput::protocol::OUTPUT_NAME,
            OutputPort::primary(sink),
        );
        collectors.push(c);
    }
    let filter = kernel
        .spawn(Box::new(Stage::filter(
            Input::Passive,
            Box::new(Identity),
            Output::Active(wiring),
            StageConfig::default(),
        )))
        .unwrap();
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::new((0..10).map(Value::Int).collect()))),
            Output::push(filter),
            StageConfig::batch(4),
        )))
        .unwrap();
    kernel.invoke(source, "Start", Value::Unit).wait().unwrap();
    let first = collectors[0].wait_done(Duration::from_secs(15)).unwrap();
    for c in &collectors[1..] {
        assert_eq!(c.wait_done(Duration::from_secs(15)).unwrap(), first);
    }
    assert_eq!(first.len(), 10);
    kernel.shutdown();
}

#[test]
fn write_only_fan_in_merges_indistinguishably() {
    // The dual failure: multiple writers into one acceptor cannot be
    // separated — their records interleave in one stream.
    let kernel = Kernel::new();
    let collector = Collector::new();
    let sink = kernel
        .spawn(Box::new(Stage::new(
            Input::Passive,
            Output::Collector(collector.clone()),
            StageConfig::default(),
        )))
        .unwrap();
    let mut starts = Vec::new();
    for base in [0i64, 100, 200] {
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new(
                    (base..base + 5).map(Value::Int).collect(),
                ))),
                Output::push(sink),
                StageConfig::batch(1),
            )))
            .unwrap();
        starts.push(kernel.invoke(src, "Start", Value::Unit));
    }
    // One writer's `end` closes the stream for everyone — writers cannot
    // be told apart, so neither can their ends. Wait for the stream to
    // close, then check what arrived is a prefix-merge of the writers.
    let got = collector.wait_done(Duration::from_secs(15)).unwrap();
    let mut seen: Vec<i64> = got.iter().map(|v| v.as_int().unwrap()).collect();
    assert!(!seen.is_empty());
    seen.dedup();
    // Every record belongs to one of the three writers; no attribution
    // is possible from the acceptor's point of view.
    assert!(seen
        .iter()
        .all(|v| (0..5).contains(v) || (100..105).contains(v) || (200..205).contains(v)));
    for s in starts {
        let _ = s.wait_timeout(Duration::from_secs(15));
    }
    kernel.shutdown();
}

#[test]
fn conventional_supports_both_directions() {
    // Active reads + active writes: a pump filter reading one pipe can
    // write two pipes, and two pumps can write one pipe.
    let kernel = Kernel::new();
    let pipe_in = kernel
        .spawn(Box::new(Stage::new(
            Input::Passive,
            Output::Passive,
            StageConfig {
                depth: 16,
                ..Default::default()
            },
        )))
        .unwrap();
    let pipe_a = kernel
        .spawn(Box::new(Stage::new(
            Input::Passive,
            Output::Passive,
            StageConfig {
                depth: 16,
                ..Default::default()
            },
        )))
        .unwrap();
    let pipe_b = kernel
        .spawn(Box::new(Stage::new(
            Input::Passive,
            Output::Passive,
            StageConfig {
                depth: 16,
                ..Default::default()
            },
        )))
        .unwrap();
    let mut wiring = OutputWiring::default();
    wiring.add(
        eden::transput::protocol::OUTPUT_NAME,
        OutputPort::primary(pipe_a),
    );
    wiring.add(
        eden::transput::protocol::OUTPUT_NAME,
        OutputPort::primary(pipe_b),
    );
    kernel
        .spawn(Box::new(Stage::filter(
            Input::pull(pipe_in),
            Box::new(Identity),
            Output::Active(wiring),
            StageConfig::batch(4),
        )))
        .unwrap();
    // Feed the input pipe directly.
    kernel
        .invoke(
            pipe_in,
            ops::WRITE,
            WriteRequest::last((0..6).map(Value::Int).collect()).to_value(),
        )
        .wait()
        .unwrap();
    let ca = Collector::new();
    let cb = Collector::new();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(pipe_a),
            Output::Collector(ca.clone()),
            StageConfig::batch(4),
        )))
        .unwrap();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(pipe_b),
            Output::Collector(cb.clone()),
            StageConfig::batch(4),
        )))
        .unwrap();
    assert_eq!(
        ca.wait_done(Duration::from_secs(15)).unwrap(),
        cb.wait_done(Duration::from_secs(15)).unwrap()
    );
    kernel.shutdown();
}
