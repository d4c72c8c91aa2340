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
//! [`ProgramSourceEject`] is exactly that: the user supplies an ordinary
//! imperative program which calls [`TransputWriter::write`]; the Eject's
//! coordinator serves `Transfer` invocations from the shared buffer. The
//! program never sends an invocation — yet the Eject is a well-behaved
//! read-only source.
//!
//! [`ProgramSinkEject`] is the §5 dual for write-only systems: "a
//! conventional *Read* routine could be implemented by extracting data from
//! an internal buffer; another process would respond to incoming *Write*
//! invocations and use the data thus obtained to fill the same buffer."

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use eden_core::op::ops;
use eden_core::{EdenError, Result, Value};
use eden_kernel::{EjectBehavior, EjectContext, InternalSender, Invocation, ReplyHandle};
use parking_lot::{Condvar, Mutex};

use crate::channels::ChannelTable;
use crate::protocol::{Batch, TransferRequest, WriteRequest};

/// State shared between a coordinator and one of its worker processes (a
/// program here, a stream stage's worker in [`crate::stage`]): a mutex and
/// one condition either side may wait on. The worker wakes the coordinator
/// by internal message ([`InternalSender`]): metered, language-level IPC.
#[derive(Debug)]
pub(crate) struct Shared<Q> {
    pub(crate) queue: Mutex<Q>,
    /// Signalled when space frees (producer side) or data arrives
    /// (consumer side).
    pub(crate) changed: Condvar,
}

impl<Q> Shared<Q> {
    pub(crate) fn new(queue: Q) -> Arc<Shared<Q>> {
        Arc::new(Shared {
            queue: Mutex::new(queue),
            changed: Condvar::new(),
        })
    }
}

#[derive(Debug)]
struct SharedQueue {
    items: VecDeque<Value>,
    closed: bool,
    capacity: usize,
}

impl SharedQueue {
    fn new(capacity: usize) -> Arc<Shared<SharedQueue>> {
        Shared::new(SharedQueue {
            items: VecDeque::new(),
            closed: false,
            capacity: capacity.max(1),
        })
    }
}

/// The conventional `Write` interface handed to a user program running
/// inside a [`ProgramSourceEject`].
#[derive(Debug)]
pub struct TransputWriter {
    shared: Arc<Shared<SharedQueue>>,
    /// Wakes the coordinator so it can serve parked readers.
    wake: InternalSender,
}

impl TransputWriter {
    /// Append one record to the output stream. Blocks while the internal
    /// buffer is full (backpressure from slow readers).
    pub fn write(&self, item: Value) -> Result<()> {
        let mut q = self.shared.queue.lock();
        while q.items.len() >= q.capacity {
            if q.closed {
                return Err(EdenError::EndOfStream);
            }
            // Backpressure park. The program usually runs on its own
            // worker-process thread, but `blocking` is the contract for
            // any wait that may hold a pool worker (it is a plain call
            // off-pool).
            eden_kernel::blocking(|| self.shared.changed.wait(&mut q));
        }
        if q.closed {
            return Err(EdenError::EndOfStream);
        }
        q.items.push_back(item);
        drop(q);
        // Nudge the coordinator; this is the intra-Eject communication the
        // paper expects to be "much more efficient than invocation".
        let _ = self.wake.send(Value::str("wake"));
        Ok(())
    }

    /// Convenience: write a text line.
    pub fn write_line(&self, line: impl Into<String>) -> Result<()> {
        self.write(Value::from(line.into()))
    }

    /// Close the stream: readers will observe end-of-stream once the
    /// buffer drains. (Also happens automatically when the program ends.)
    pub fn close(&self) {
        let mut q = self.shared.queue.lock();
        if !q.closed {
            q.closed = true;
            drop(q);
            self.shared.changed.notify_all();
            let _ = self.wake.send(Value::str("wake"));
        }
    }
}

impl Drop for TransputWriter {
    fn drop(&mut self) {
        self.close();
    }
}

/// A read-only source Eject whose data is produced by an ordinary
/// imperative program calling `write`.
pub struct ProgramSourceEject {
    program: Option<Box<dyn FnOnce(TransputWriter) + Send>>,
    capacity: usize,
    shared: Option<Arc<Shared<SharedQueue>>>,
    waiters: VecDeque<(usize, ReplyHandle)>,
    channels: ChannelTable,
}

impl ProgramSourceEject {
    /// Run `program` in a worker process; serve its writes as a stream.
    pub fn new<F>(program: F) -> ProgramSourceEject
    where
        F: FnOnce(TransputWriter) + Send + 'static,
    {
        ProgramSourceEject::with_capacity(program, 256)
    }

    /// As [`new`](Self::new) with an explicit buffer capacity.
    pub fn with_capacity<F>(program: F, capacity: usize) -> ProgramSourceEject
    where
        F: FnOnce(TransputWriter) + Send + 'static,
    {
        ProgramSourceEject {
            program: Some(Box::new(program)),
            capacity,
            shared: None,
            waiters: VecDeque::new(),
            channels: ChannelTable::single_output(),
        }
    }

    fn serve(&mut self) {
        let shared = match &self.shared {
            Some(s) => Arc::clone(s),
            None => return,
        };
        loop {
            let front_max = match self.waiters.front() {
                Some((max, _)) => *max,
                None => return,
            };
            let (items, end) = {
                let mut q = shared.queue.lock();
                if q.items.is_empty() && !q.closed {
                    return; // Nothing to say yet; keep the reply parked.
                }
                let n = front_max.min(q.items.len());
                let items: Vec<Value> = q.items.drain(..n).collect();
                let end = q.closed && q.items.is_empty();
                (items, end)
            };
            shared.changed.notify_all(); // Space freed for the program.
            let (_, reply) = self.waiters.pop_front().expect("front checked");
            reply.reply(Ok(Batch { items, end }.to_value()));
        }
    }
}

impl EjectBehavior for ProgramSourceEject {
    fn type_name(&self) -> &'static str {
        "ProgramSource"
    }

    // A `Transfer` is parked and answered from the queue, here or on the
    // program's next wake; the queue lock is never held across a wait.
    fn replies_last(&self) -> bool {
        true
    }

    fn activate(&mut self, ctx: &EjectContext) {
        let shared = SharedQueue::new(self.capacity);
        self.shared = Some(Arc::clone(&shared));
        let program = match self.program.take() {
            Some(p) => p,
            None => return,
        };
        let writer = TransputWriter {
            shared,
            wake: ctx.internal_sender(),
        };
        ctx.spawn_process("program", move |_pctx| {
            program(writer);
            // TransputWriter::drop closes the stream.
        });
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            ops::TRANSFER => {
                let req = TransferRequest::from_value(&inv.arg);
                match req.and_then(|r| self.channels.index_of(r.channel).map(|_| r)) {
                    Ok(req) => {
                        reply.mark_deferred();
                        self.waiters.push_back((req.max, reply));
                        self.serve();
                    }
                    Err(e) => reply.reply(Err(e)),
                }
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }

    fn internal(&mut self, _ctx: &EjectContext, _event: Value) {
        self.serve();
    }
}

/// The conventional `Read` interface handed to a user program running
/// inside a [`ProgramSinkEject`].
#[derive(Debug)]
pub struct TransputReader {
    shared: Arc<Shared<SharedQueue>>,
    /// Wakes the coordinator so it can admit parked writers after this
    /// reader frees buffer space. `None` only in unit tests.
    wake: Option<InternalSender>,
}

impl TransputReader {
    fn took_one(&self) {
        self.shared.changed.notify_all();
        if let Some(wake) = &self.wake {
            let _ = wake.send(Value::str("wake"));
        }
    }

    /// Take the next record, blocking until one arrives. `None` at
    /// end-of-stream.
    pub fn read(&self) -> Option<Value> {
        let mut q = self.shared.queue.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                drop(q);
                self.took_one();
                return Some(item);
            }
            if q.closed {
                return None;
            }
            eden_kernel::blocking(|| self.shared.changed.wait(&mut q));
        }
    }

    /// Take the next record, giving up after `deadline`.
    pub fn read_timeout(&self, deadline: Duration) -> Result<Option<Value>> {
        let mut q = self.shared.queue.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                drop(q);
                self.took_one();
                return Ok(Some(item));
            }
            if q.closed {
                return Ok(None);
            }
            if eden_kernel::blocking(|| self.shared.changed.wait_for(&mut q, deadline)).timed_out()
            {
                return Err(EdenError::Timeout);
            }
        }
    }
}

/// A write-only sink Eject whose data is consumed by an ordinary
/// imperative program calling `read`.
pub struct ProgramSinkEject {
    program: Option<Box<dyn FnOnce(TransputReader) + Send>>,
    capacity: usize,
    shared: Option<Arc<Shared<SharedQueue>>>,
    parked_writes: VecDeque<(WriteRequest, ReplyHandle)>,
}

impl ProgramSinkEject {
    /// Run `program` in a worker process; feed it incoming `Write`s.
    pub fn new<F>(program: F) -> ProgramSinkEject
    where
        F: FnOnce(TransputReader) + Send + 'static,
    {
        ProgramSinkEject::with_capacity(program, 256)
    }

    /// As [`new`](Self::new) with an explicit buffer capacity.
    pub fn with_capacity<F>(program: F, capacity: usize) -> ProgramSinkEject
    where
        F: FnOnce(TransputReader) + Send + 'static,
    {
        ProgramSinkEject {
            program: Some(Box::new(program)),
            capacity,
            shared: None,
            parked_writes: VecDeque::new(),
        }
    }

    fn admit(&mut self) {
        let shared = match &self.shared {
            Some(s) => Arc::clone(s),
            None => return,
        };
        while let Some((w, _)) = self.parked_writes.front() {
            let fits = {
                let q = shared.queue.lock();
                q.items.len() + w.items.len() <= q.capacity || q.items.is_empty()
            };
            if !fits {
                return;
            }
            let (w, reply) = self.parked_writes.pop_front().expect("front checked");
            let mut q = shared.queue.lock();
            // The first `end` closed the stream for everyone: a re-sent one
            // is a no-op, a record beyond it a sender's bug.
            if q.closed && !w.items.is_empty() {
                drop(q);
                let refused = EdenError::Application("write after end of stream".into());
                reply.reply(Err(refused));
                continue;
            }
            q.items.extend(w.items);
            if w.end {
                q.closed = true;
            }
            drop(q);
            shared.changed.notify_all();
            reply.reply(Ok(Value::Unit));
        }
    }
}

impl EjectBehavior for ProgramSinkEject {
    fn type_name(&self) -> &'static str {
        "ProgramSink"
    }

    // A `Write` is parked and acknowledged when the queue has room, here or
    // on the program's next wake; the queue lock is never held across a wait.
    fn replies_last(&self) -> bool {
        true
    }

    fn activate(&mut self, ctx: &EjectContext) {
        let shared = SharedQueue::new(self.capacity);
        self.shared = Some(Arc::clone(&shared));
        let program = match self.program.take() {
            Some(p) => p,
            None => return,
        };
        let wake = ctx.internal_sender();
        let reader = TransputReader {
            shared: Arc::clone(&shared),
            wake: Some(ctx.internal_sender()),
        };
        ctx.spawn_process("program", move |_pctx| {
            program(reader);
            // Final wake in case the program exits with writes parked.
            let _ = wake.send(Value::str("wake"));
        });
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            ops::WRITE => match WriteRequest::from_value(inv.arg) {
                Ok(w) => {
                    reply.mark_deferred();
                    self.parked_writes.push_back((w, reply));
                    self.admit();
                }
                Err(e) => reply.reply(Err(e)),
            },
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }

    fn internal(&mut self, _ctx: &EjectContext, _event: Value) {
        self.admit();
    }
}


impl std::fmt::Debug for ProgramSourceEject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramSourceEject").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for ProgramSinkEject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramSinkEject").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::source::VecSource;
    use crate::stage::{Input, Output, Stage, StageConfig};
    use eden_kernel::Kernel;

    #[test]
    fn program_source_serves_writes_as_stream() {
        let kernel = Kernel::new();
        let src = kernel
            .spawn(Box::new(ProgramSourceEject::new(|out| {
                for i in 0..10 {
                    out.write(Value::Int(i)).unwrap();
                }
            })))
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
            .spawn(Box::new(ProgramSourceEject::with_capacity(
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
            .spawn(Box::new(ProgramSinkEject::new(move |input| {
                while let Some(v) = input.read() {
                    seen2.lock().push(v);
                }
                *done2.0.lock() = true;
                done2.1.notify_all();
            })))
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
    fn reader_timeout_fires() {
        let shared = SharedQueue::new(4);
        let reader = TransputReader {
            shared: Arc::clone(&shared),
            wake: None,
        };
        assert_eq!(
            reader.read_timeout(Duration::from_millis(20)).unwrap_err(),
            EdenError::Timeout
        );
    }

    #[test]
    fn writer_close_is_idempotent_and_drop_closes() {
        let kernel = Kernel::new();
        let src = kernel
            .spawn(Box::new(ProgramSourceEject::new(|out| {
                out.write_line("only").unwrap();
                out.close();
                out.close();
                // Writing after close fails cleanly.
                assert!(out.write(Value::Int(1)).is_err());
            })))
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
