//! The "standard IO module" of §4 — conventional programming over
//! asymmetric transput.
//!
//! "It is possible to adopt a more conventional style of programming by
//! adding an extra process to the filter. The standard IO module obtained
//! from a library would implement the usual *Write* operations that put
//! characters into a buffer. However, that buffer would be shared with a
//! process that receives invocations which request data and services them.
//! The filter process itself would be programmed in the conventional way
//! and make use of the *Write* operations whenever necessary."
//!
//! [`program_source`] is exactly that, and it is a [`Stage`] like any other
//! source: the user supplies an ordinary imperative program which calls
//! [`TransputWriter::write`], and which runs as the stage's worker process
//! — a write is what a read-ahead worker does with a chunk: wait for room
//! at the buffer, put it there, wake the coordinator. The coordinator
//! serves `Transfer` invocations from the buffer, as it does for every
//! passive output. The program never sends an invocation — yet the Eject is
//! a well-behaved read-only source.
//!
//! [`program_sink`] is the §5 dual for write-only systems: "a conventional
//! *Read* routine could be implemented by extracting data from an internal
//! buffer; another process would respond to incoming *Write* invocations
//! and use the data thus obtained to fill the same buffer." A read is what a
//! push-drain worker does: take the oldest undelivered write.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use eden_core::{EdenError, Result, Value};
use eden_kernel::ProcessContext;

use crate::stage::{await_buffer, Buffer, Chunk, Input, Output, Shared, Stage, StageConfig};
use crate::transform::Emitter;

/// The buffer a program gets where nobody says how deep ([`StageConfig::depth`]
/// of 0): records a writing program may be ahead of its readers, writes a
/// reading program may be behind its writers.
pub const BUFFER: usize = 256;

/// An imperative program, to be handed its conventional interface `T` and
/// run as a stage's worker process.
pub struct Program<T>(Box<dyn FnOnce(T) + Send>);

impl<T> Program<T> {
    /// Wrap `program`.
    pub fn new(program: impl FnOnce(T) + Send + 'static) -> Program<T> {
        Program(Box::new(program))
    }

    pub(crate) fn run(self, interface: T) {
        (self.0)(interface)
    }
}

impl<T> std::fmt::Debug for Program<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Program")
    }
}

/// A read-only source whose records an ordinary imperative program
/// produces by calling `write`, `capacity` records ahead of its readers at
/// most (0: [`BUFFER`]). A reader is answered as soon as there is a record.
pub fn program_source<F>(program: F, capacity: usize) -> Stage
where
    F: FnOnce(TransputWriter) + Send + 'static,
{
    let config = StageConfig {
        depth: capacity,
        ..StageConfig::batch(1)
    };
    Stage::new(
        Input::Program(Program::new(program)),
        Output::Passive,
        config,
    )
}

/// A write-only sink whose records an ordinary imperative program consumes
/// by calling `read`, `capacity` writes behind its writers at most (0:
/// [`BUFFER`]); a writer that finds as many undelivered is parked.
pub fn program_sink<F>(program: F, capacity: usize) -> Stage
where
    F: FnOnce(TransputReader) + Send + 'static,
{
    let config = StageConfig {
        depth: capacity,
        ..StageConfig::default()
    };
    Stage::new(
        Input::Passive,
        Output::Program(Program::new(program)),
        config,
    )
}

/// The conventional `Write` interface handed to a program that is a
/// stage's input face ([`Input::Program`]).
#[derive(Debug)]
pub struct TransputWriter {
    meet: Arc<Shared>,
    pctx: ProcessContext,
    /// Records the buffer holds before a write waits.
    room: usize,
}

impl TransputWriter {
    pub(crate) fn new(meet: Arc<Shared>, pctx: ProcessContext, room: usize) -> TransputWriter {
        TransputWriter { meet, pctx, room }
    }

    /// Put a chunk in the buffer once `ready` for it, and nudge the
    /// coordinator; this is the intra-Eject communication the paper expects
    /// to be "much more efficient than invocation".
    fn put(&self, chunk: Chunk, ready: impl Fn(&Buffer) -> bool) -> Result<()> {
        let mut chunk = Some(chunk);
        await_buffer(&self.meet, &self.pctx, None, |buffer| match buffer.ended {
            true => Some(Err(EdenError::EndOfStream)),
            false if ready(buffer) => chunk.take().map(|chunk| buffer.put(chunk)),
            false => None,
        })??;
        self.pctx.post_internal(Value::Unit)
    }

    /// Append one record to the output stream. Blocks while the internal
    /// buffer is full (backpressure from slow readers); fails once the
    /// stream is closed, or its Eject is gone.
    pub fn write(&self, item: Value) -> Result<()> {
        let out = Emitter::of(vec![item]);
        self.put(Chunk { out, end: false }, |buffer| {
            buffer.occupancy() < self.room
        })
    }

    /// Convenience: write a text line.
    pub fn write_line(&self, line: impl Into<String>) -> Result<()> {
        self.write(Value::from(line.into()))
    }

    /// Close the stream: readers will observe end-of-stream once the
    /// buffer drains. (Also happens automatically when the program ends.)
    pub fn close(&self) {
        let end = Chunk {
            end: true,
            ..Chunk::default()
        };
        let _ = self.put(end, |_| true);
    }
}

impl Drop for TransputWriter {
    fn drop(&mut self) {
        self.close();
    }
}

/// The conventional `Read` interface handed to a program that is a stage's
/// output face ([`Output::Program`]).
#[derive(Debug)]
pub struct TransputReader {
    meet: Arc<Shared>,
    pctx: ProcessContext,
    /// What is left of the write in hand, and whether it ended the stream.
    hand: RefCell<(VecDeque<Value>, bool)>,
}

impl TransputReader {
    pub(crate) fn new(meet: Arc<Shared>, pctx: ProcessContext) -> TransputReader {
        let hand = RefCell::default();
        TransputReader { meet, pctx, hand }
    }

    fn next(&self, patience: Option<Duration>) -> Result<Option<Value>> {
        let mut hand = self.hand.borrow_mut();
        loop {
            if let Some(item) = hand.0.pop_front() {
                return Ok(Some(item));
            }
            if hand.1 {
                return Ok(None);
            }
            // The write in hand has been read: it no longer counts against
            // the depth, and the coordinator may have a writer to admit.
            if std::mem::take(&mut self.meet.queue.lock().delivering) {
                self.pctx.post_internal(Value::Unit)?;
            }
            let mut write = await_buffer(&self.meet, &self.pctx, patience, Buffer::take_write)?;
            *hand = (write.out.take_primary().into(), write.end);
        }
    }

    /// Take the next record, blocking until one arrives. `None` at
    /// end-of-stream (or once the Eject is gone).
    pub fn read(&self) -> Option<Value> {
        self.next(None).unwrap_or(None)
    }

    /// Take the next record, giving up after `deadline`.
    pub fn read_timeout(&self, deadline: Duration) -> Result<Option<Value>> {
        self.next(Some(deadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::protocol::WriteRequest;
    use crate::source::VecSource;
    use eden_core::op::ops;
    use eden_kernel::Kernel;
    use parking_lot::{Condvar, Mutex};

    #[test]
    fn program_source_serves_writes_as_stream() {
        let kernel = Kernel::new();
        let src = kernel
            .spawn(Box::new(program_source(
                |out| {
                    for i in 0..10 {
                        out.write(Value::Int(i)).unwrap();
                    }
                },
                0,
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(src),
                Output::Collector(collector.clone()),
                StageConfig::batch(3),
            )))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (0..10).map(Value::Int).collect::<Vec<_>>());
        kernel.shutdown();
    }

    #[test]
    fn program_source_backpressure() {
        // A tiny buffer: the program cannot race ahead of the reader.
        let kernel = Kernel::new();
        let src = kernel
            .spawn(Box::new(program_source(
                |out| {
                    for i in 0..50 {
                        out.write(Value::Int(i)).unwrap();
                    }
                },
                2,
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(src),
                Output::Collector(collector.clone()),
                StageConfig::batch(5),
            )))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items.len(), 50);
        kernel.shutdown();
    }

    #[test]
    fn program_sink_reads_incoming_writes() {
        let kernel = Kernel::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let done2 = Arc::clone(&done);
        let sink = kernel
            .spawn(Box::new(program_sink(
                move |input| {
                    while let Some(v) = input.read() {
                        seen2.lock().push(v);
                    }
                    *done2.0.lock() = true;
                    done2.1.notify_all();
                },
                0,
            )))
            .unwrap();
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..10).map(Value::Int).collect()))),
                Output::push(sink),
                StageConfig::batch(4),
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let mut flag = done.0.lock();
        if !*flag {
            done.1.wait_for(&mut flag, Duration::from_secs(10));
        }
        assert!(*flag, "program must see end of stream");
        drop(flag);
        assert_eq!(seen.lock().len(), 10);
        kernel.shutdown();
    }

    #[test]
    fn program_that_returns_early_releases_its_writers() {
        // One write fills the buffer, the next would be parked — but nobody
        // is left to make room, and the writer must hear of it.
        let kernel = Kernel::new();
        let sink = kernel.spawn(Box::new(program_sink(drop, 1))).unwrap();
        let refused = (0..3).find_map(|i| {
            let write = WriteRequest::more(vec![Value::Int(i)]).to_value();
            kernel.invoke(sink, ops::WRITE, write).wait().err()
        });
        let refused = refused.expect("a write into a sink nobody reads was acknowledged");
        assert_ne!(
            refused,
            EdenError::Timeout,
            "and the writer was left parked"
        );
        kernel.shutdown();
    }

    #[test]
    fn reader_timeout_fires() {
        let kernel = Kernel::new();
        let (tried, result) = std::sync::mpsc::channel();
        let program = move |input: TransputReader| {
            let _ = tried.send(input.read_timeout(Duration::from_millis(20)));
        };
        kernel.spawn(Box::new(program_sink(program, 4))).unwrap();
        assert_eq!(
            result
                .recv_timeout(Duration::from_secs(10))
                .unwrap()
                .unwrap_err(),
            EdenError::Timeout
        );
        kernel.shutdown();
    }

    #[test]
    fn writer_close_is_idempotent_and_drop_closes() {
        let kernel = Kernel::new();
        let src = kernel
            .spawn(Box::new(program_source(
                |out| {
                    out.write_line("only").unwrap();
                    out.close();
                    out.close();
                    // Writing after close fails cleanly.
                    assert!(out.write(Value::Int(1)).is_err());
                },
                0,
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(src),
                Output::Collector(collector.clone()),
                StageConfig::batch(4),
            )))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, vec![Value::str("only")]);
        kernel.shutdown();
    }
}
