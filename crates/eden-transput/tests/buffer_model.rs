//! Model-based testing of the stream stage, over every pair of faces.
//!
//! Random interleavings of `Write` and `Transfer` invocations are fired at
//! a [`Stage`] — at its passive faces, that is; an active face gets a plain
//! source to pull or a plain acceptor to push into — with and without a
//! buffer between the faces. Afterwards we assert the stream invariants
//! that make any of them a pipe: everything that went in comes out, exactly
//! once, in order, and the end flag appears exactly at the true end.
//! (Passive on both faces is the Unix pipe Eject itself.)

use std::time::Duration;

use eden_core::op::ops;
use eden_core::Value;
use eden_kernel::{Kernel, PendingReply};
use eden_transput::protocol::{Batch, TransferRequest, WriteRequest};
use eden_transput::source::VecSource;
use eden_transput::{Collector, Input, Mode, Output, Stage, StageConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Write this many records.
    Write(u8),
    /// Transfer up to this many records.
    Read(u8),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![(1u8..6).prop_map(Op::Write), (1u8..6).prop_map(Op::Read),],
        1..40,
    )
}

fn mode() -> impl Strategy<Value = Mode> {
    prop_oneof![Just(Mode::Active), Just(Mode::Passive)]
}

const WAIT: Duration = Duration::from_secs(20);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_face_pair_preserves_the_stream(
        ops in ops_strategy(),
        input in mode(),
        output in mode(),
        depth in 0usize..8,
        batch in 1usize..6,
    ) {
        let kernel = Kernel::new();
        let spawn = |stage: Stage| kernel.spawn(Box::new(stage)).expect("spawn");
        let written = |op: &Op| match op {
            Op::Write(n) => *n as i64,
            Op::Read(_) => 0,
        };
        let total: i64 = ops.iter().map(written).sum();
        // An active face gets the plainest peer there is.
        let pushed = Collector::new();
        let out = match output {
            Mode::Passive => Output::Passive,
            Mode::Active => Output::push(spawn(Stage::new(
                Input::Passive,
                Output::Collector(pushed.clone()),
                StageConfig::default(),
            ))),
        };
        let supply = VecSource::new((0..total).map(Value::Int).collect());
        let inp = match input {
            Mode::Passive => Input::Passive,
            Mode::Active => Input::pull(spawn(Stage::new(
                Input::Local(Box::new(supply)),
                Output::Passive,
                StageConfig::default(),
            ))),
        };
        let config = StageConfig { depth, ..StageConfig::batch(batch) };
        let stage = spawn(Stage::new(inp, out, config));

        // Fire the operations the passive faces take, in order, unawaited.
        let mut next_record: i64 = 0;
        let mut write_acks: Vec<PendingReply> = Vec::new();
        let mut reads: Vec<PendingReply> = Vec::new();
        for op in &ops {
            match op {
                Op::Write(n) if input == Mode::Passive => {
                    let items: Vec<Value> =
                        (next_record..next_record + *n as i64).map(Value::Int).collect();
                    next_record += *n as i64;
                    write_acks.push(kernel.invoke(
                        stage,
                        ops::WRITE,
                        WriteRequest::more(items).to_value(),
                    ));
                }
                Op::Read(n) if output == Mode::Passive => {
                    reads.push(kernel.invoke(
                        stage,
                        ops::TRANSFER,
                        TransferRequest::primary(*n as usize).to_value(),
                    ));
                }
                _ => {}
            }
        }
        // Close the stream, then drain whatever remains.
        if input == Mode::Passive {
            let close = WriteRequest::last(vec![]).to_value();
            write_acks.push(kernel.invoke(stage, ops::WRITE, close));
        }
        let mut draining = output == Mode::Passive;
        while draining {
            let got = kernel
                .invoke(stage, ops::TRANSFER, TransferRequest::primary(4).to_value())
                .wait_timeout(WAIT)
                .and_then(Batch::from_value)
                .expect("drain");
            draining = !got.end;
            reads.push(PendingReply::ready(Ok(got.to_value())));
        }
        // Every write must eventually be acknowledged.
        for ack in write_acks {
            ack.wait_timeout(WAIT).expect("write ack");
        }
        // Collect every read reply, in issue order — or what was pushed.
        let mut out: Vec<i64> = Vec::new();
        let mut saw_end = false;
        for pending in reads {
            let batch = Batch::from_value(pending.wait_timeout(WAIT).expect("read reply"))
                .expect("batch");
            prop_assert!(!saw_end || batch.is_empty(), "records after end");
            for item in &batch.items {
                out.push(item.as_int().expect("int record"));
            }
            if batch.end {
                saw_end = true;
            }
        }
        if output == Mode::Active {
            // `wait_done` returns once the acceptor has seen the end flag.
            let items = pushed.wait_done(WAIT).expect("pushed stream ends");
            out.extend(items.iter().map(|v| v.as_int().expect("int record")));
            saw_end = true;
            prop_assert_eq!(pushed.records_seen(), out.len() as u64, "records after end");
        }
        prop_assert!(saw_end, "the end flag must eventually appear");
        // FIFO, exactly-once: readers issued in order see the whole
        // sequence in order.
        prop_assert_eq!(out.len() as i64, total, "every record exactly once");
        for (i, v) in out.iter().enumerate() {
            prop_assert_eq!(*v, i as i64, "records in order");
        }
        kernel.shutdown();
    }
}
