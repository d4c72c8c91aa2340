//! One stream stage over {active, passive} × {input, output}.
//!
//! The paper's four transput primitives are two faces in two modes, and a
//! stream system needs only one **corresponding pair** of them (§2–§3).
//! [`Stage`] is that construction written once: an input face, a transform
//! step, a buffer, an output face. Every role a pipeline needs is a choice
//! of faces — and whether it survives a crash is not one of them: any pair
//! of plain faces can be *retained* (last column; [`crate::recovery`]), and
//! is then registered as `RecoverableStage` whatever its role.
//!
//! | [`Input`] | [`Output`] | role | `type_name` | retained, it is a recoverable pipeline's |
//! |---|---|---|---|---|
//! | local | passive | source: "any Eject which responds to *Read* invocations" (§4) | `StreamSource` | source, its supply loaded into the buffer whole |
//! | active | passive | read-only filter | `PullFilter` | read-only `stage{i}` |
//! | active | collector | the sink that pumps a read-only pipeline (§4) | `StreamSink` | — (the driver is that sink) |
//! | local | active | the source that pumps a write-only pipeline (§5) | `PushSource` | write-only source; starts unasked |
//! | passive | active | write-only filter | `PushFilter` | write-only `stage{i}` |
//! | passive | collector | acceptor: "always ready to accept" writes (§5) | `AcceptorSink` | — (the acceptor is the pipe below) |
//! | passive | passive | the Unix pipe, Figure 1's passive buffer | `PassiveBuffer` | `buf{i}`; read by `ReadAll`, the acceptor |
//! | active | active | the Unix filter: transforms *and pumps* (§3) | `PumpFilter` | conventional `pump{i}` |
//! | passive + one port read actively | active | §5's "secondary inputs, which are actively read" | `ZipPushFilter` | — |
//! | program | passive | §4's standard IO module: a program that `write`s, as the read-ahead worker ([`crate::stdio::program_source`]) | `ProgramSource` | — |
//! | passive | program | its §5 dual: a program that `read`s, as the push-drain worker ([`crate::stdio::program_sink`]) | `ProgramSink` | — |
//! | local | passive | the disposable reader `Open` and `NewStream` mint (§7): answers `Close`, gone once read out ([`Stage::reader`]) | `DisposableReader` | — (`OpenDurable` mints the retained source above) |
//! | active, labelled ports | collector | Figure 4's report window ([`crate::devices::report_window`]) | `StreamSink` | — |
//!
//! ## Faces
//!
//! * A **passive input** accepts `Write`. It cannot tell its writers apart
//!   — one writer making k writes looks like k writers making one each —
//!   which is exactly why write-only transput has no controlled fan-in
//!   (§5). The first `end` closes the stream for everyone; a record written
//!   later is refused.
//! * An **active input** holds [`InputPort`]s and `Transfer`s from them,
//!   interleaved by a [`FanInMode`](crate::FanInMode): "if F needs n inputs, it maintains n
//!   UIDs" (§5). A **local** input is no face at all, just a
//!   [`PullSource`]; nor is a **program**, which is the worker of the next
//!   section handed a conventional `write` or `read` ([`crate::stdio`]).
//! * A **passive output** serves `Transfer` from per-channel buffers and
//!   parks a reader it cannot serve yet (a deferred reply — "it will be sent
//!   to whatever Eject requests it", §4). Fan-out needs the channel
//!   identifiers of §5: `GetChannel` hands them out from a [`ChannelTable`].
//! * An **active output** `Write`s into an [`OutputWiring`]; a **collector**
//!   output lands the records where a test or a terminal can see them.
//!
//! ## Depth: who runs the active face
//!
//! [`StageConfig::depth`] is the buffer between the faces, and decides who
//! runs the active one.
//!
//! * **Depth 0** runs it inline, in the passive face's handler, on the same
//!   thread, and the reply is the handler's last act. A read-only filter is
//!   then *lazy* — "no computation need be done until the result is
//!   requested" (§4): it pulls upstream only while serving a `Transfer`, so
//!   no data moves anywhere until a sink starts reading. A write-only filter
//!   is a *rendezvous*: it acknowledges a `Write` only after its downstream
//!   has acknowledged what that write came to.
//! * **Depth > 0** is §4's "each Eject in a pipeline should read some input
//!   and buffer-up some output, and then suspend processing pending a
//!   request for output. In this way all the Ejects in a pipeline can run
//!   concurrently" — and its dual for writers. One worker process runs the
//!   active face and meets the coordinator at the buffer: a read-ahead
//!   worker fills it while fewer than `depth` records wait to be read; a
//!   push-ahead worker drains it, and a writer that finds `depth` writes
//!   still undelivered is parked (its reply deferred), so the coordinator
//!   never blocks. A pipe's depth is its capacity.
//! * A stage with **no passive face** has nobody to drive it, so the worker
//!   runs both faces whatever the depth: the sink's pump, the conventional
//!   filter, and the pushing source, which waits for `Start` and answers it
//!   when the last write has been acknowledged — `Start` is "run the
//!   pipeline".
//!
//! Worker and coordinator share one [`Shared`] buffer and wake each other
//! by internal message, metered as language-level IPC rather than as
//! invocations — the distinction the paper's cost argument rests on.
//!
//! ## Retention: what the stage has not been told to forget
//!
//! The faces speak positions: a `Write` may say where its first record
//! stands, a `Transfer` which record it wants first, and an absent position
//! means "next" — all a volatile stage ever says or hears. A retained stage
//! (`Stage::retained`) counts, and differs at three kinds of site only.
//! *When the buffer may forget:* not what it serves or sends but what the
//! position of a later `Transfer`, or the reply to a `Write`, acknowledges —
//! so it parks no reader and no writer, and holds everything between two
//! passive faces that nobody reads by position. *What an acknowledgement
//! waits for:* a durable write whenever the stage has taken or made something
//! (`retain`, `save`) — of what changed, or of the stage whole — and nothing
//! when a reader's position only lets it forget. *How a peer is called:* by
//! a send whose wait retries, never by a call its caller's thread could be
//! lent to (`pull`, `OutFace::consume`).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use eden_core::op::ops;
use eden_core::{EdenError, OpName, Result, Uid, Value};
use eden_kernel::{
    EjectBehavior, EjectContext, Invocation, InvokeOptions, PendingReply, ProcessContext,
    ReplyHandle, RouteCache,
};

use crate::batching::AdaptiveBatch;
use crate::channels::{ChannelPolicy, ChannelTable};
use crate::collector::Collector;
use crate::ports::{deliver, FanInMode, InputPort, InputPuller, OutputPort, OutputWiring};
use crate::protocol::{Batch, GetChannelRequest, TransferRequest, WriteRequest, OUTPUT_NAME};
use crate::recovery::{self, Kept, READ_ALL};
use crate::source::{PullSource, VecSource};
use crate::stdio::{Program, TransputReader, TransputWriter};
use crate::transform::{self, Emitter, Transform};
use parking_lot::{Condvar, Mutex};

/// Starts the worker of a stage that pumps a local supply.
const START: &str = "Start";

/// A stage's input face.
#[derive(Debug)]
pub enum Input {
    /// Accept `Write`s.
    Passive,
    /// Accept `Write`s, and pair every record written with one actively
    /// read from a secondary port: `Value::List([written, read])`, padded
    /// with `Unit` once the port runs dry. How a stream editor's command
    /// input or a comparator's second file enters a write-only pipeline
    /// (§5). Built by [`Input::zipped`].
    Zipped(InputPuller),
    /// `Transfer` from ports. Built by [`Input::pull`] or [`Input::ports`].
    Active(InputPuller),
    /// Draw on a local supply of records.
    Local(Box<dyn PullSource>),
    /// Let an imperative program write the records, conventionally: §4's
    /// standard IO module ([`crate::stdio`]). The program *is* the stage's
    /// read-ahead worker, so the output face is passive and a `depth` of 0
    /// means [`crate::stdio::BUFFER`].
    Program(Program<TransputWriter>),
}

impl Input {
    /// Active input from one Eject's primary channel.
    pub fn pull(uid: Uid) -> Input {
        Input::ports(vec![InputPort::primary(uid)], FanInMode::Concatenate)
    }

    /// Active input from several ports, interleaved by `mode`.
    pub fn ports(ports: Vec<InputPort>, mode: FanInMode) -> Input {
        Input::Active(InputPuller::new(ports, mode))
    }

    /// Active input from several ports in turn, every record labelled with
    /// the port it came by — `{from: label, item: record}` — which only the
    /// face that holds the ports can say: how a report window reads its
    /// sources (Figure 4).
    pub fn labelled(ports: Vec<(String, InputPort)>) -> Input {
        let (labels, ports) = ports.into_iter().unzip();
        Input::Active(InputPuller::new(ports, FanInMode::RoundRobin).labelled(labels))
    }

    /// Passive input zipped with `secondary`'s primary channel.
    pub fn zipped(secondary: Uid) -> Input {
        let port = InputPort::primary(secondary);
        Input::Zipped(InputPuller::new(vec![port], FanInMode::Concatenate))
    }
}

/// A stage's output face.
#[derive(Debug)]
pub enum Output {
    /// Serve `Transfer`s; the transform's secondary channels are declared
    /// after the primary in the stage's channel table.
    Passive,
    /// `Write` into this wiring.
    Active(OutputWiring),
    /// Land the primary stream in a [`Collector`] and finish it at
    /// end-of-stream (or fail it when the input does).
    Collector(Collector),
    /// Let an imperative program read the records, conventionally: the §5
    /// dual of [`Input::Program`]. The program is the stage's push-drain
    /// worker, so the input face is passive, and `depth` as there.
    Program(Program<TransputReader>),
}

impl Output {
    /// Active output into one Eject's primary input.
    pub fn push(uid: Uid) -> Output {
        Output::Active(OutputWiring::primary_to(OutputPort::primary(uid)))
    }
}

/// Tuning for a [`Stage`]. Every field has a neutral default.
#[derive(Debug, Clone)]
pub struct StageConfig {
    /// Records an active face moves per invocation. With `batch_max` at or
    /// below it this is the fixed batch size; otherwise the floor of an
    /// adaptive range.
    pub batch: usize,
    /// Upper bound for adaptive batch sizing (see [`AdaptiveBatch`]).
    pub batch_max: usize,
    /// The buffer between the faces (module docs): records a read-ahead
    /// worker keeps waiting, writes a push-ahead worker may have in hand,
    /// records a pipe holds before it parks its writers. 0 = no worker.
    pub depth: usize,
    /// How a passive output's channel identifiers are minted.
    pub policy: ChannelPolicy,
    /// Writes an active output keeps in flight: "the sending of an
    /// invocation does not suspend the execution of the sending Eject"
    /// (§1), exploited for pipelining. Acknowledgements are collected in
    /// order; 1 is the synchronous rendezvous. Windowing needs a single
    /// destination — fan-out wiring stays at 1 so every peer is in
    /// lock-step.
    pub window: usize,
}

impl Default for StageConfig {
    fn default() -> Self {
        StageConfig::batch(16)
    }
}

impl StageConfig {
    /// The defaults, moving `batch` records per invocation.
    pub fn batch(batch: usize) -> StageConfig {
        StageConfig {
            batch,
            batch_max: 0,
            depth: 0,
            policy: ChannelPolicy::Integer,
            window: 1,
        }
    }
}

/// What a face needs from whoever runs it — the Eject's coordinator for a
/// face run inline, its worker process otherwise, a recording fake in the
/// tests below: call a peer through the face's route cache, which is all a
/// synchronous volatile face ever does; send now and wait later, to keep a
/// window of writes in flight, or under the options that let a retained
/// face's call ride out a crash of its peer ([`crate::recovery`], 3); and
/// write the stage's passive representation, whole or one journal entry more.
pub(crate) trait Host {
    fn call(&self, cache: &mut RouteCache, to: Uid, op: &'static str, arg: Value) -> Result<Value>;
    fn send(&self, to: Uid, op: &'static str, arg: Value, how: InvokeOptions<'_>) -> PendingReply;
    fn wait(&self, pending: PendingReply) -> Result<Value>;
    fn checkpoint(&self, state: &Value) -> Result<()>;
    fn journal(&self, entry: &Value) -> Result<()>;
}

impl Host for EjectContext {
    fn call(&self, cache: &mut RouteCache, to: Uid, op: &'static str, arg: Value) -> Result<Value> {
        self.call_routed(cache, to, OpName::from_static(op), arg)
    }
    fn send(&self, to: Uid, op: &'static str, arg: Value, how: InvokeOptions<'_>) -> PendingReply {
        self.invoke_with(to, OpName::from_static(op), arg, how)
    }
    fn wait(&self, pending: PendingReply) -> Result<Value> {
        pending.wait()
    }
    fn checkpoint(&self, state: &Value) -> Result<()> {
        EjectContext::checkpoint(self, state)
    }
    fn journal(&self, entry: &Value) -> Result<()> {
        EjectContext::journal(self, entry)
    }
}

impl Host for ProcessContext {
    fn call(&self, cache: &mut RouteCache, to: Uid, op: &'static str, arg: Value) -> Result<Value> {
        self.call_routed(cache, to, OpName::from_static(op), arg)
    }
    fn send(&self, to: Uid, op: &'static str, arg: Value, how: InvokeOptions<'_>) -> PendingReply {
        self.invoke_with(to, OpName::from_static(op), arg, how)
    }
    fn wait(&self, pending: PendingReply) -> Result<Value> {
        self.wait_or_stop(pending)
    }
    fn checkpoint(&self, state: &Value) -> Result<()> {
        ProcessContext::checkpoint(self, state)
    }
    fn journal(&self, entry: &Value) -> Result<()> {
        ProcessContext::journal(self, entry)
    }
}

/// What one step of input came to, once through the transform.
#[derive(Debug, Default)]
pub(crate) struct Chunk {
    pub(crate) out: Emitter,
    /// The input has ended and the transform has flushed into `out`.
    pub(crate) end: bool,
}

/// The input face and the transform step behind it.
#[derive(Debug)]
pub(crate) struct InFace {
    face: Input,
    /// `None` copies.
    pub(crate) transform: Option<Box<dyn Transform>>,
    /// Upstream routes, learned on first use.
    cache: RouteCache,
    dial: AdaptiveBatch,
    /// The input has ended and the transform has flushed.
    flushed: bool,
    /// No passive output sets this stage's pace: it pumps.
    pumping: bool,
}

/// One step of an active input: up to `max` records, from `pos` if the
/// face keeps count, and whether it ended.
fn pull(
    puller: &mut InputPuller,
    host: &impl Host,
    cache: &mut RouteCache,
    max: usize,
    pos: Option<u64>,
) -> Result<(Vec<Value>, bool)> {
    puller.pull_next(max, &mut |port: InputPort, max| {
        let (channel, to) = (port.channel, port.uid);
        let arg = TransferRequest { channel, max, pos }.to_value();
        let reply = match pos {
            Some(_) => host.wait(host.send(to, ops::TRANSFER, arg, recovery::stream_opts())),
            None => host.call(cache, to, ops::TRANSFER, arg),
        };
        reply.and_then(Batch::from_value)
    })
}

impl InFace {
    /// Run `items` through the transform, flushing it if they end the input.
    fn absorb(&mut self, items: Vec<Value>, end: bool, kept: Option<&mut Kept>) -> Chunk {
        let end = end && !self.flushed;
        if let Some(kept) = kept {
            kept.consumed += items.len() as u64;
            kept.dirty |= end || !items.is_empty();
        }
        let out = transform::step(&mut self.transform, items, end);
        self.flushed |= end;
        Chunk { out, end }
    }

    /// The passive face: take what a `Write` carries.
    fn accept(&mut self, host: &impl Host, mut w: WriteRequest, kept: Option<&mut Kept>) -> Chunk {
        if let Input::Zipped(secondary) = &mut self.face {
            for item in &mut w.items {
                let read = pull(secondary, host, &mut self.cache, 1, None);
                let (read, _) = read.unwrap_or_else(|_| {
                    secondary.done = true;
                    (Vec::new(), true)
                });
                let read = read.into_iter().next().unwrap_or(Value::Unit);
                *item = Value::list(vec![std::mem::replace(item, Value::Unit), read]);
            }
        }
        self.absorb(w.items, w.end, kept)
    }

    /// The active face: one step of input, `ask` records of it — pulled at
    /// `kept`'s position, where the stage keeps one.
    fn produce(&mut self, host: &impl Host, ask: usize, kept: Option<&mut Kept>) -> Result<Chunk> {
        let (items, end) = match &mut self.face {
            Input::Local(source) => {
                let pulled = source.pull(ask);
                eden_core::stream::note_emitted(pulled.items.len());
                (pulled.items, pulled.end)
            }
            Input::Active(puller) => {
                let pos = kept.as_ref().map(|kept| kept.consumed);
                let (items, end) = pull(puller, host, &mut self.cache, ask, pos)?;
                // Saturated upstream → fatter batches; a starved reply
                // (well under what we asked for) → fall back towards the
                // floor. The shrink threshold is deliberately far below the
                // grow threshold: partial batches are normal under
                // concurrency and must not collapse the dial.
                if self.pumping && items.len() * 2 >= ask {
                    self.dial.grow();
                } else if self.pumping && !end && items.len() * 8 < ask {
                    self.dial.shrink();
                }
                (items, end)
            }
            Input::Passive | Input::Zipped(_) => unreachable!("a passive input is written to"),
            Input::Program(_) => unreachable!("a program is its own worker"),
        };
        Ok(self.absorb(items, end, kept))
    }

    /// As [`produce`](Self::produce) for a volatile stage's reader to be
    /// served: an upstream failure ends the stream here, and the reader sees
    /// a short one (the error also surfaced in metrics).
    fn produce_or_end(&mut self, host: &impl Host, ask: usize) -> Chunk {
        self.produce(host, ask, None)
            .unwrap_or_else(|_| self.absorb(Vec::new(), true, None))
    }
}

/// The output face.
#[derive(Debug)]
struct OutFace {
    face: Output,
    /// Downstream routes, learned on first use.
    cache: RouteCache,
    dial: AdaptiveBatch,
    window: usize,
    /// Writes sent and not yet acknowledged (`window` > 1).
    in_flight: VecDeque<PendingReply>,
}

impl OutFace {
    /// The active face: deliver a chunk — at `seq`, where the stage keeps
    /// count. `end` is forwarded on every wired channel so downstream
    /// streams close; returns once fewer than `window` writes are
    /// unacknowledged — none, at the end of the stream.
    fn consume(&mut self, host: &impl Host, mut chunk: Chunk, seq: Option<u64>) -> Result<()> {
        let wiring = match &self.face {
            Output::Active(wiring) => wiring,
            Output::Collector(collector) => {
                let items = chunk.out.take_primary();
                if !items.is_empty() {
                    collector.append(items);
                }
                if chunk.end {
                    collector.finish();
                }
                return Ok(());
            }
            Output::Passive => unreachable!("a passive output is read from"),
            Output::Program(_) => unreachable!("a program is its own worker"),
        };
        let (window, end) = (self.window, chunk.end);
        let windowed = window > 1 && wiring.fan_out() == 1;
        let (cache, in_flight) = (&mut self.cache, &mut self.in_flight);
        let unsent = in_flight.len();
        deliver(wiring, &mut chunk.out, end, seq, &mut |port, arg| {
            if windowed {
                let routed = InvokeOptions::new().route_cache(cache);
                in_flight.push_back(host.send(port.uid, ops::WRITE, arg, routed));
                Ok(())
            } else if seq.is_some() {
                let retrying = host.send(port.uid, ops::WRITE, arg, recovery::stream_opts());
                host.wait(retrying).map(drop)
            } else {
                host.call(cache, port.uid, ops::WRITE, arg).map(drop)
            }
        })?;
        if !windowed {
            return Ok(());
        }
        let sent = in_flight.len() > unsent;
        // Reap acknowledgements that have already arrived without blocking.
        while let Some(pending) = in_flight.pop_front() {
            match pending.try_wait() {
                Ok(result) => drop(result?),
                Err(still_pending) => {
                    in_flight.push_front(still_pending);
                    break;
                }
            }
        }
        if sent && in_flight.is_empty() && !end {
            // Even the write just sent was already acknowledged: batching
            // overshot.
            self.dial.shrink();
        } else if in_flight.len() >= window {
            // Window saturated — downstream is invocation-bound; amortise
            // with bigger writes, then block.
            self.dial.grow();
        }
        while in_flight.len() >= window || (end && !in_flight.is_empty()) {
            host.wait(in_flight.pop_front().expect("non-empty checked"))?;
        }
        Ok(())
    }
}

/// The buffer between the faces, where coordinator and worker meet. What it
/// holds goes by the output face it feeds: a passive output keeps records,
/// per channel, until they are read; an active one forwards write for
/// write, so it keeps what each accepted `Write` came to until the worker
/// has delivered it.
#[derive(Debug, Default)]
pub(crate) struct Buffer {
    /// A passive output's channels and their queues (else empty).
    table: ChannelTable,
    pub(crate) queues: Vec<VecDeque<Value>>,
    /// An active output's undelivered writes, and whether the worker has
    /// one more in hand.
    pub(crate) writes: VecDeque<Chunk>,
    pub(crate) delivering: bool,
    /// The final chunk has been put.
    pub(crate) ended: bool,
    /// The other side is gone: the coordinator has been dropped, or the
    /// worker has failed.
    closed: bool,
}

impl Buffer {
    pub(crate) fn put(&mut self, mut chunk: Chunk) -> Result<()> {
        if self.closed {
            return Err(EdenError::Application("forwarding worker gone".into()));
        }
        self.ended |= chunk.end;
        if self.queues.is_empty() {
            self.writes.push_back(chunk);
            return Ok(());
        }
        let primary = chunk.out.take_primary();
        match self.queues[0].is_empty() {
            // The chunk becomes the queue, its allocation and all: a reader
            // that takes the lot gets the very vector the step made.
            true => self.queues[0] = primary.into(),
            false => self.queues[0].extend(primary),
        }
        for (name, items) in chunk.out.take_secondary() {
            // A transform emitting on an undeclared channel is a bug in the
            // transform; drop the records rather than poison the stream.
            let id = self.table.id_of(&name);
            if let Ok(idx) = id.and_then(|id| self.table.index_of(id)) {
                self.queues[idx].extend(items);
            }
        }
        Ok(())
    }

    /// What `depth` bounds: primary records waiting to be read, or writes
    /// accepted and not yet delivered.
    pub(crate) fn occupancy(&self) -> usize {
        match self.queues.first() {
            Some(primary) => primary.len(),
            None => self.writes.len() + usize::from(self.delivering),
        }
    }

    /// Serve a read of channel `idx`, unless fewer than `fill` records
    /// wait there and more may come. End is visible only with the last of
    /// them. What is read is forgotten, unless the stage is to `keep` it
    /// until it is acknowledged.
    fn read(&mut self, idx: usize, max: usize, fill: usize, keep: bool) -> Option<Batch> {
        let queue = &mut self.queues[idx];
        if queue.len() < fill && !self.ended {
            return None;
        }
        let n = max.min(queue.len());
        let end = self.ended && n == queue.len();
        let items: Vec<Value> = match keep {
            true => queue.iter().take(n).cloned().collect(),
            false if n == queue.len() => std::mem::take(queue).into(),
            false => queue.drain(..n).collect(),
        };
        Some(Batch { items, end })
    }

    /// Hand the worker the oldest undelivered write; it counts against the
    /// depth until the worker reports back.
    pub(crate) fn take_write(&mut self) -> Option<Chunk> {
        let chunk = self.writes.pop_front()?;
        self.delivering = true;
        Some(chunk)
    }
}

/// A buffer its coordinator shares with a worker process: a mutex and one
/// condition either side may wait on. The worker wakes the coordinator by
/// internal message: metered, language-level IPC.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) queue: Mutex<Buffer>,
    /// Signalled when space frees (producer side) or data arrives
    /// (consumer side).
    changed: Condvar,
}

/// The coordinator's hold on the buffer: its own until a worker is spawned,
/// shared from then on. Dropping it — deactivation, crash, a panicking
/// handler — closes a shared buffer and releases a worker waiting there.
#[derive(Debug)]
enum Meet {
    Own(Buffer),
    Shared(Arc<Shared>),
}

impl Meet {
    fn with<R>(&mut self, f: impl FnOnce(&mut Buffer) -> R) -> R {
        match self {
            Meet::Own(buffer) => f(buffer),
            Meet::Shared(shared) => f(&mut shared.queue.lock()),
        }
    }

    /// Share the buffer with a worker (and let it know of every change).
    fn share(&mut self) -> Arc<Shared> {
        if let Meet::Own(buffer) = self {
            let (queue, changed) = (Mutex::new(std::mem::take(buffer)), Condvar::new());
            *self = Meet::Shared(Arc::new(Shared { queue, changed }));
        }
        let Meet::Shared(shared) = self else {
            unreachable!("just shared");
        };
        Arc::clone(shared)
    }

    fn changed(&self) {
        if let Meet::Shared(shared) = self {
            shared.changed.notify_all();
        }
    }
}

impl Drop for Meet {
    fn drop(&mut self) {
        self.with(|buffer| buffer.closed = true);
        self.changed();
    }
}

/// On the worker's own thread: wait at the buffer until `ready` yields, for
/// no longer than `patience` at a time if the worker has only so much.
pub(crate) fn await_buffer<R>(
    meet: &Shared,
    pctx: &ProcessContext,
    patience: Option<Duration>,
    mut ready: impl FnMut(&mut Buffer) -> Option<R>,
) -> Result<R> {
    let mut buffer = meet.queue.lock();
    loop {
        if buffer.closed || pctx.should_stop() {
            return Err(EdenError::KernelShutdown);
        }
        if let Some(found) = ready(&mut buffer) {
            return Ok(found);
        }
        match patience {
            // eden-lint: nonblocking(spawn_process worker thread, not a pool worker)
            None => meet.changed.wait(&mut buffer),
            // eden-lint: timer(deadline)
            // eden-lint: nonblocking(spawn_process worker thread, not a pool worker)
            Some(patience) if meet.changed.wait_for(&mut buffer, patience).timed_out() => {
                return Err(EdenError::Timeout);
            }
            Some(_) => {}
        }
    }
}

/// Put a chunk in the buffer, which is all a volatile stage does with it.
/// A retained one (`kept`), whoever runs it, then `Write`s what the buffer
/// holds if its output is active — a batch at a time at `base`, each
/// forgotten only once acknowledged — and checkpoints: after each
/// acknowledgement, so that a crash resumes from the last acknowledged
/// position and the receiver's sequence arithmetic absorbs the one batch
/// that may be re-sent; and before whoever gave the chunk hears of it or is
/// asked for more. A passive output has nothing to push: it delivers by
/// retaining, and its reader will come.
fn retain(
    host: &impl Host,
    input: &InFace,
    mut output: Option<&mut OutFace>,
    buffer: &mut Buffer,
    kept: Option<&mut Kept>,
    chunk: Chunk,
) -> Result<()> {
    buffer.put(chunk)?;
    let Some(kept) = kept else {
        return Ok(());
    };
    while let Some(output) = output.as_deref_mut().filter(|_| !kept.out_end) {
        let Some(Batch { items, end }) = buffer.read(0, kept.batch, 1, true) else {
            break;
        };
        let (n, out) = (items.len(), Emitter::of(items));
        output.consume(host, Chunk { out, end }, Some(kept.base))?;
        kept.forget(&mut buffer.queues[0], n);
        (kept.out_end, kept.dirty) = (end, true);
        kept.save(host, input, buffer)?;
    }
    kept.save(host, input, buffer)
}

/// The one worker loop: take a chunk from the input face, or from the
/// buffer if the coordinator runs that face; give it to the output face, or
/// to the buffer if the coordinator runs that one. A retained stage's
/// worker runs both faces and `held` all the stage keeps.
fn work(
    pctx: &ProcessContext,
    input: &mut Option<InFace>,
    output: &mut Option<OutFace>,
    meet: &Shared,
    depth: usize,
    dial: &AdaptiveBatch,
    held: &mut Option<(Box<Kept>, Buffer)>,
) -> Result<()> {
    loop {
        if pctx.should_stop() {
            return Err(EdenError::KernelShutdown);
        }
        let chunk = match input {
            // What a failed delivery left in the buffer goes out before more
            // comes in: the next pull's position would acknowledge records
            // that only memory holds.
            Some(_) if held.as_ref().is_some_and(|(_, b)| b.occupancy() > 0) => Chunk::default(),
            Some(face) if output.is_some() => {
                let mut kept = held.as_mut().map(|(kept, _)| &mut **kept);
                let at = kept.as_ref().map(|kept| kept.consumed);
                let chunk = face.produce(pctx, dial.current(), kept.as_deref_mut())?;
                if kept.is_some_and(|kept| Some(kept.consumed) == at && !face.flushed) {
                    // A dry upstream buffer, and the stream still open: a
                    // retained passive output parks nobody, so poll.
                    recovery::pause();
                }
                chunk
            }
            Some(face) => {
                // The window deepens with the batch dial: pre-pulling less
                // than one batch's worth would starve the very batches the
                // dial grew.
                let room = await_buffer(meet, pctx, None, |buffer| {
                    let target = depth.max(dial.current());
                    target
                        .checked_sub(buffer.occupancy())
                        .filter(|room| *room > 0)
                })?;
                face.produce_or_end(pctx, dial.current().min(room))
            }
            None => await_buffer(meet, pctx, None, Buffer::take_write)?,
        };
        let mut end = chunk.end;
        match (&mut *output, &mut *held) {
            (Some(face), Some((kept, buffer))) => {
                let input = input.as_ref().expect("a pump runs both faces");
                retain(pctx, input, Some(face), buffer, Some(kept), chunk)?;
                end = kept.out_end;
            }
            (Some(face), None) => face.consume(pctx, chunk, None)?,
            (None, _) => meet.queue.lock().put(chunk)?,
        }
        if input.is_none() {
            meet.queue.lock().delivering = false;
        }
        if input.is_none() || output.is_none() {
            // The coordinator may now have a reader to answer or a writer to
            // admit. Language-level IPC, metered apart from invocation.
            pctx.post_internal(Value::Unit)?;
        }
        if end {
            return Ok(());
        }
    }
}

/// One stream stage: see the module docs.
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    /// The faces; `None` once the worker runs one.
    input: Option<InFace>,
    output: Option<OutFace>,
    /// Their modes (a local input counts as active).
    in_passive: bool,
    out_passive: bool,
    /// The input face holds ports: demand reaches upstream.
    pulls: bool,
    /// The records-per-invocation dial, shared with the worker.
    dial: AdaptiveBatch,
    depth: usize,
    meet: Meet,
    /// Parked `Transfer`s (how many records, whose reply), per channel.
    readers: Vec<VecDeque<(usize, ReplyHandle)>>,
    /// Parked `Write`s: a passive input whose buffer is at capacity.
    writers: VecDeque<(WriteRequest, ReplyHandle)>,
    /// A collector output, kept for `Progress` and to report a failed pump.
    collector: Option<Collector>,
    /// What a retained stage keeps beside all this ([`crate::recovery`]);
    /// `None` on a volatile one, and once the worker runs both faces.
    kept: Option<Box<Kept>>,
    /// Answers `Close`, and deactivates once its stream has been read to
    /// the end — and, never having checkpointed, disappears (§7).
    disposable: bool,
}

impl Stage {
    /// A stage that copies records from `input` to `output`.
    pub fn new(input: Input, output: Output, config: StageConfig) -> Stage {
        Stage::assemble(input, None, output, config)
    }

    /// A stage that runs `transform` between its faces. The very same
    /// [`Transform`] mounts between any pair of faces: the filter function
    /// is separate from the communication discipline.
    pub fn filter(
        input: Input,
        transform: Box<dyn Transform>,
        output: Output,
        config: StageConfig,
    ) -> Stage {
        Stage::assemble(input, Some(transform), output, config)
    }

    /// The stream a client opens for reading (§7's `NewStream`, a file's
    /// `Open`): a private, disposable source over `records`. It answers
    /// `Close`; closed, or read to its end, "the UnixFile Eject deactivates
    /// itself and, since it has never Checkpointed, disappears".
    pub fn reader(records: Vec<Value>) -> Stage {
        let supply = Input::Local(Box::new(VecSource::new(records)));
        let mut stage = Stage::new(supply, Output::Passive, StageConfig::default());
        (stage.name, stage.disposable) = ("DisposableReader", true);
        stage
    }

    pub(crate) fn assemble(
        input: Input,
        transform: Option<Box<dyn Transform>>,
        output: Output,
        config: StageConfig,
    ) -> Stage {
        let name = match (&input, &output) {
            (Input::Program(_), Output::Passive) => "ProgramSource",
            (Input::Passive, Output::Program(_)) => "ProgramSink",
            (Input::Program(_), _) | (_, Output::Program(_)) => {
                panic!("a program runs one face, and the coordinator the other, passively")
            }
            (Input::Local(_), Output::Passive) => "StreamSource",
            (Input::Local(_), _) => "PushSource",
            (Input::Active(_), Output::Passive) => "PullFilter",
            (Input::Active(_), Output::Active(_)) => "PumpFilter",
            (Input::Active(_), Output::Collector(_)) => "StreamSink",
            (Input::Zipped(_), _) => "ZipPushFilter",
            (Input::Passive, Output::Passive) => "PassiveBuffer",
            (Input::Passive, Output::Active(_)) => "PushFilter",
            (Input::Passive, Output::Collector(_)) => "AcceptorSink",
        };
        let batch = config.batch.max(1);
        let dial = AdaptiveBatch::new(batch, config.batch_max.max(batch));
        let out_passive = matches!(output, Output::Passive);
        // A program meets its coordinator at the buffer, so there is one.
        let program = matches!(input, Input::Program(_)) || matches!(output, Output::Program(_));
        let depth = match config.depth {
            0 if program => crate::stdio::BUFFER,
            depth => depth,
        };
        let mut names = Vec::new();
        if out_passive {
            names.push(OUTPUT_NAME);
            names.extend(transform.iter().flat_map(|t| t.secondary_channels()));
        }
        let collector = match &output {
            Output::Collector(collector) => Some(collector.clone()),
            _ => None,
        };
        Stage {
            name,
            in_passive: matches!(input, Input::Passive | Input::Zipped(_)),
            out_passive,
            pulls: matches!(input, Input::Active(_)),
            input: Some(InFace {
                face: input,
                transform,
                cache: RouteCache::new(),
                dial: dial.clone(),
                flushed: false,
                pumping: !out_passive,
            }),
            output: Some(OutFace {
                face: output,
                cache: RouteCache::new(),
                dial: dial.clone(),
                window: config.window.max(1),
                in_flight: VecDeque::new(),
            }),
            dial,
            depth,
            readers: names.iter().map(|_| VecDeque::new()).collect(),
            meet: Meet::Own(Buffer {
                queues: names.iter().map(|_| VecDeque::new()).collect(),
                table: ChannelTable::new(config.policy, names),
                ..Buffer::default()
            }),
            writers: VecDeque::new(),
            collector,
            kept: None,
            disposable: false,
        }
    }

    /// A retained stage ([`crate::recovery`]) holding `buf` as its output so
    /// far, `ended` if its input has closed. It stays what recovery can
    /// prove correct: one primary port per active face, one channel, a fixed
    /// batch, one write in flight, and no buffer but what it retains.
    pub(crate) fn retained(
        kept: Kept,
        buf: VecDeque<Value>,
        ended: bool,
        transform_state: &Value,
    ) -> Result<Stage> {
        // Built now so a typo fails at build, not mid-stream.
        let transform = kept.transform(transform_state)?;
        let input = match kept.upstream {
            Some(upstream) => Input::pull(upstream),
            None if kept.local => Input::Local(Box::new(VecSource::new(Vec::new()))),
            None => Input::Passive,
        };
        let output = kept.downstream.map_or(Output::Passive, Output::push);
        let config = StageConfig::batch(kept.batch);
        let mut stage = Stage::assemble(input, transform, output, config);
        stage.input.as_mut().expect("just assembled").flushed = ended;
        stage.meet = Meet::Own(Buffer {
            table: ChannelTable::single_output(),
            queues: vec![buf],
            ended,
            ..Buffer::default()
        });
        stage.readers = vec![VecDeque::new()];
        (stage.name, stage.kept) = (recovery::STAGE_TYPE, Some(Box::new(kept)));
        Ok(stage)
    }

    /// Checkpoint a retained stage whose faces are here, if anything changed
    /// since the last one.
    fn save(&mut self, host: &impl Host) -> Result<()> {
        let (Some(kept), Some(input)) = (&mut self.kept, &self.input) else {
            return Ok(());
        };
        self.meet.with(|buffer| kept.save(host, input, buffer))
    }

    /// An active face runs on the worker when there is a buffer to meet the
    /// coordinator at, or no passive face whose handler could run it.
    fn in_worker(&self) -> bool {
        !self.in_passive && (self.depth > 0 || !self.out_passive)
    }

    fn out_worker(&self) -> bool {
        !self.out_passive && (self.depth > 0 || !self.in_passive)
    }

    /// A pump over a local supply waits to be told to `Start`; every other
    /// worker starts with its stage — and so does a retained stage's, which
    /// has to start again with every reactivation, unasked.
    fn awaits_start(&self) -> bool {
        !self.in_passive && !self.out_passive && !self.pulls && self.kept.is_none()
    }

    /// Move the faces the worker runs into a worker process. `done` is the
    /// deferred reply to `Start`, answered when the stream has been
    /// delivered whole.
    fn spawn_worker(&mut self, ctx: &EjectContext, done: Option<ReplyHandle>) {
        let (in_worker, out_worker) = (self.in_worker(), self.out_worker());
        let input = self.input.take_if(|_| in_worker);
        let output = self.output.take_if(|_| out_worker);
        let name = match (&input, &output) {
            (None, None) => return,
            (Some(_), Some(_)) => "pump",
            (Some(_), None) => "read-ahead",
            (None, Some(_)) => "push-drain",
        };
        // A retained stage has no depth, so its worker runs both faces and
        // takes all the stage keeps with them: nothing is left to meet at.
        let mut held = (self.kept.take()).map(|kept| (kept, self.meet.with(std::mem::take)));
        let meet = self.meet.share();
        let (depth, dial, collector) = (self.depth, self.dial.clone(), self.collector.clone());
        ctx.spawn_process(name, move |pctx| {
            let result = match (input, output) {
                // A program is the worker: what it writes goes into the
                // buffer as a read-ahead worker's chunks do, what it reads
                // comes out of it as a push-drain worker's writes do.
                (
                    Some(InFace {
                        face: Input::Program(program),
                        ..
                    }),
                    _,
                ) => {
                    // Room for whatever a reader may be waiting for whole.
                    let room = depth.max(dial.bounds().1);
                    program.run(TransputWriter::new(Arc::clone(&meet), pctx.clone(), room));
                    Ok(())
                }
                (
                    _,
                    Some(OutFace {
                        face: Output::Program(program),
                        ..
                    }),
                ) => {
                    program.run(TransputReader::new(Arc::clone(&meet), pctx.clone()));
                    // One that returns before the end of its stream leaves
                    // nobody to take the writes still to come.
                    let buffer = meet.queue.lock();
                    match buffer.ended && buffer.writes.is_empty() {
                        true => Ok(()),
                        false => Err(EdenError::EndOfStream),
                    }
                }
                (mut input, mut output) => loop {
                    match work(
                        &pctx,
                        &mut input,
                        &mut output,
                        &meet,
                        depth,
                        &dial,
                        &mut held,
                    ) {
                        // Retries exhausted under heavy fault load: pause
                        // and carry on from the same positions rather than
                        // strand the stream (a write that may or may not
                        // have landed is re-sent with the same sequence; the
                        // receiver deduplicates).
                        Err(e) if held.is_some() && e != EdenError::KernelShutdown => {
                            recovery::pause()
                        }
                        result => break result,
                    }
                },
            };
            let failed = !matches!(result, Ok(()) | Err(EdenError::KernelShutdown));
            if failed {
                // The worker is giving up with its stage alive: whoever is
                // parked at the buffer must not wait for what will not come.
                meet.queue.lock().closed = true;
                let _ = pctx.post_internal(Value::Unit);
            }
            match (result, done, collector) {
                (result, Some(done), _) => done.reply(result.map(|()| Value::Unit)),
                (Err(e), None, Some(collector)) if failed => collector.fail(e),
                _ => {}
            }
        });
    }

    /// The passive input face: a `Write`.
    fn accept(&mut self, host: &impl Host, w: WriteRequest, reply: ReplyHandle) {
        // With a buffer between the faces, a writer that finds it full (or
        // finds others already waiting) is parked: passive input under
        // backpressure. The reply is deferred; the coordinator never blocks.
        // What a retained buffer holds is for its reader's acknowledgements
        // to bound, not a capacity: it parks nobody.
        let buffered = (self.out_passive || self.depth > 0) && self.kept.is_none();
        if buffered && (!self.writers.is_empty() || self.full()) {
            reply.mark_deferred();
            self.writers.push_back((w, reply));
        } else {
            self.admit(host, w, reply);
        }
        self.settle(host);
    }

    /// The buffer has no room for another write (a closed one takes the
    /// write and refuses it).
    fn full(&mut self) -> bool {
        let depth = self.depth.max(1);
        self.meet.with(|b| !b.closed && b.occupancy() >= depth)
    }

    /// Take a `Write`: through the transform, then into the output face if
    /// it runs here (and the acknowledgement waits for its downstream's),
    /// else into the buffer. A retained stage takes only what lies beyond
    /// the position it has accepted, and acknowledges what it has kept,
    /// passed on and checkpointed, so that every crash window resolves to a
    /// re-send the sequence arithmetic deduplicates.
    fn admit(&mut self, host: &impl Host, mut w: WriteRequest, reply: ReplyHandle) {
        let input = self.input.as_mut().expect("a passive face stays here");
        let mut kept = self.kept.as_deref_mut();
        if let Some(Err(gap)) = kept.as_ref().map(|kept| kept.sequence(&mut w)) {
            return reply.reply(Err(gap));
        }
        // A re-sent end of stream is a no-op; a record beyond the closed
        // stream's end is a sender's bug.
        if input.flushed && !w.items.is_empty() {
            let refused = EdenError::Application("write after end of stream".into());
            return reply.reply(Err(refused));
        }
        let chunk = input.accept(host, w, kept.as_deref_mut());
        let output = self.output.as_mut().filter(|_| !self.out_passive);
        let result = match (output, kept) {
            (Some(output), None) => output.consume(host, chunk, None),
            (output, kept) => self
                .meet
                .with(|buffer| retain(host, input, output, buffer, kept, chunk)),
        };
        reply.reply(result.map(|()| Value::Unit));
    }

    /// The passive output face: a `Transfer`. A retained stage's buffer
    /// forgets what the request's position acknowledges, not what it serves
    /// — in memory only; what is checkpointed here is what `fill` pulled.
    fn serve(&mut self, host: &impl Host, req: TransferRequest, reply: ReplyHandle) {
        let kept = self.kept.as_deref_mut();
        let idx = self.meet.with(|b| {
            let idx = b.table.index_of(req.channel)?;
            kept.map_or(Ok(()), |kept| kept.acknowledge(req.pos, &mut b.queues[idx]))?;
            Ok(idx)
        });
        let idx = match idx {
            Ok(idx) => idx,
            Err(e) => return reply.reply(Err(e)),
        };
        if idx == 0 {
            // Demand propagation: a downstream asking for more per Transfer
            // than we pull per Transfer cascades the batch dial up the
            // pipeline — open it until it covers the observed demand (the
            // dial's own max still caps it).
            let covers = req.max.min(self.dial.bounds().1);
            while self.pulls && self.dial.current() < covers {
                self.dial.grow();
            }
            // Secondary channels fill only as a by-product of primary
            // demand — §4's laziness means reports trail the main stream.
            if let Err(e) = self.fill(host, req.max) {
                return reply.reply(Err(e));
            }
        }
        // Readers are served in the order they came: one that finds others
        // parked waits behind them, even if the worker has just put enough.
        let first = self.readers[idx].is_empty();
        match first.then(|| self.read(idx, req.max)).flatten() {
            // Checkpoint before reply: the stable state must not claim less
            // progress than the reader has seen.
            Some(batch) => reply.reply(self.save(host).map(|()| batch.to_value())),
            None => {
                // Passive output with no data: park the reader — the
                // "partial vacuum" of §4.
                reply.mark_deferred();
                self.readers[idx].push_back((req.max, reply));
                if idx == 0 && self.in_worker() {
                    // The prefetch is not keeping up: move more records per
                    // invocation.
                    self.dial.grow();
                }
            }
        }
        self.settle(host);
    }

    /// Depth 0: run the input face here, now, until `want` primary records
    /// wait or the input ends. (A no-op when the input face is passive or
    /// the worker runs it.) Only a retained stage's fails.
    fn fill(&mut self, host: &impl Host, want: usize) -> Result<()> {
        let Some(input) = self.input.as_mut().filter(|_| !self.in_passive) else {
            return Ok(());
        };
        let mut pulls = 0usize;
        let mut have = self.meet.with(|buffer| buffer.occupancy());
        while have < want && !input.flushed {
            // A peer is asked for a batch; a local supply yields exactly
            // what is asked for.
            let batch = self.dial.current();
            let ask = if self.pulls { batch } else { want - have };
            let mut kept = self.kept.as_deref_mut();
            let chunk = match kept.as_deref_mut() {
                None => input.produce_or_end(host, ask),
                // A retained stage's reader gets the error, and asks again.
                Some(kept) => input.produce(host, ask, Some(kept))?,
            };
            // And what it pulled is durable before the next pull's position
            // leaves, which tells the upstream to discard what only memory
            // would have otherwise.
            have = self.meet.with(|buffer| {
                retain(host, input, None, buffer, kept, chunk)?;
                Ok::<_, EdenError>(buffer.occupancy())
            })?;
            pulls += 1;
        }
        // Adapt: a serve needing several upstream pulls is invocation-bound;
        // a single pull that left more than a demand's worth buffered
        // overshot. (No-ops when the batch is fixed.)
        if pulls >= 2 {
            self.dial.grow();
        } else if pulls == 1 && have > want {
            self.dial.shrink();
        }
        Ok(())
    }

    fn read(&mut self, idx: usize, max: usize) -> Option<Batch> {
        // A prefetched primary reader is served whole batches (capped by
        // the dial's own bound): answering a 64-record ask with the 4
        // records that happen to be buffered would turn one invocation into
        // many.
        let whole = idx == 0 && self.in_worker();
        let cap = self.dial.bounds().1;
        // A retained output parks nobody — a parked reply would die with a
        // crash anyway: it answers an empty batch, and its reader polls.
        let keep = self.kept.is_some();
        let fill = match (keep, whole) {
            (true, _) => 0,
            (_, true) => max.min(cap),
            _ => 1,
        };
        self.meet.with(|buffer| buffer.read(idx, max, fill, keep))
    }

    /// Move parked writes into the buffer while space allows and answer
    /// parked reads while data (or end) allows, then let the worker look.
    fn settle(&mut self, host: &impl Host) {
        let mut moved = true;
        while std::mem::take(&mut moved) {
            while !self.writers.is_empty() && !self.full() {
                let (w, reply) = self.writers.pop_front().expect("non-empty checked");
                self.admit(host, w, reply);
                moved = true;
            }
            for idx in 0..self.readers.len() {
                while let Some(&(max, _)) = self.readers[idx].front() {
                    let Some(batch) = self.read(idx, max) else {
                        break;
                    };
                    let (_, reply) = self.readers[idx].pop_front().expect("front checked");
                    reply.reply(Ok(batch.to_value()));
                    moved = true;
                }
            }
        }
        self.meet.changed();
    }
}

impl EjectBehavior for Stage {
    fn type_name(&self) -> &'static str {
        self.name
    }

    // Whatever the depth, a coordinator path (`accept`, `admit`, `serve`,
    // `settle`) runs its active face first, then answers or parks the
    // handle, and after that touches only its own buffer: a write admitted
    // from `settle` goes into the buffer, never downstream. The one pair of
    // faces that breaks this is a zipped input behind a passive output:
    // answering a `Transfer` makes room, and admitting the parked write that
    // takes it reads the secondary port. And a retained stage's calls are
    // no calls but sends with a wait that retries them: it is never run on
    // its caller's thread.
    fn replies_last(&self) -> bool {
        let zipped = matches!(
            self.input,
            Some(InFace {
                face: Input::Zipped(_),
                ..
            })
        );
        !(zipped && self.out_passive) && self.kept.is_none()
    }

    fn redo(&mut self, entry: Value) -> Result<()> {
        let (Some(kept), Some(input)) = (&mut self.kept, &mut self.input) else {
            return Err(EdenError::Application("a volatile stage keeps no journal".into()));
        };
        self.meet.with(|buffer| {
            buffer.ended = kept.redo(&entry, &mut buffer.queues[0])?;
            input.flushed = buffer.ended;
            Ok(())
        })
    }

    fn activate(&mut self, ctx: &EjectContext) {
        if let Some(kept) = &mut self.kept {
            if kept.stored.is_some() {
                ctx.metrics().record_recovered_stream();
            }
            // Durable from birth (a recovered stage *is* its stable state): a
            // crash before the first stream operation must leave a
            // reactivatable Eject, not a vanished one.
            kept.dirty |= kept.stored.is_none();
            let _ = self.save(ctx);
        }
        if !self.awaits_start() {
            self.spawn_worker(ctx, None);
        }
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        // A face answers only the operations of its mode.
        match inv.op.as_str() {
            ops::WRITE if self.in_passive => match WriteRequest::from_value(inv.arg) {
                Ok(w) => self.accept(ctx, w, reply),
                Err(e) => reply.reply(Err(e)),
            },
            ops::TRANSFER if self.out_passive => match TransferRequest::from_value(&inv.arg) {
                Ok(req) => {
                    self.serve(ctx, req, reply);
                    let read_out = |buffer: &mut Buffer| buffer.ended && buffer.occupancy() == 0;
                    if self.disposable && self.meet.with(read_out) {
                        ctx.request_deactivate();
                    }
                }
                Err(e) => reply.reply(Err(e)),
            },
            ops::CLOSE if self.disposable => {
                reply.reply(Ok(Value::Unit));
                ctx.request_deactivate();
            }
            ops::GET_CHANNEL if self.out_passive => reply.reply(
                GetChannelRequest::from_value(&inv.arg)
                    .and_then(|req| self.meet.with(|buffer| buffer.table.id_of(&req.name)))
                    .map(Value::from),
            ),
            // All a retained output holds from the request's position on, and
            // none of it forgotten: how a recoverable pipeline's acceptor is read.
            READ_ALL if self.out_passive && self.kept.is_some() => {
                let pos = TransferRequest::from_value(&inv.arg).map_or(0, |req| req.pos.unwrap_or(0));
                let skip = pos.saturating_sub(self.kept.as_ref().map_or(0, |kept| kept.base)) as usize;
                let all = self.meet.with(|buffer| Batch {
                    items: buffer.queues[0].iter().skip(skip).cloned().collect(),
                    end: buffer.ended,
                });
                reply.reply(Ok(all.to_value()));
            }
            // The worker has had the faces since the first `Start`.
            START if self.awaits_start() && self.input.is_none() => {
                reply.reply(Err(EdenError::Application("already started".into())));
            }
            START if self.awaits_start() => {
                reply.mark_deferred();
                self.spawn_worker(ctx, Some(reply));
            }
            // How many records a collector output has landed so far.
            "Progress" if self.collector.is_some() => {
                let seen = self.collector.as_ref().map_or(0, Collector::records_seen);
                reply.reply(Ok(Value::Int(seen as i64)));
            }
            // Primary records waiting to be read (diagnostics).
            "Occupancy" if self.out_passive => {
                let waiting = self.meet.with(|buffer| buffer.occupancy());
                reply.reply(Ok(Value::Int(waiting as i64)));
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }

    fn internal(&mut self, ctx: &EjectContext, _event: Value) {
        // The worker has put or taken something.
        self.settle(ctx);
        if self.out_passive && self.in_worker() {
            // An amplifying transform can pile output far past the
            // read-ahead target with nobody reading. Only a backlog far
            // past the window means batching overshot demand; a transient
            // pile-up right after a fat delivery is normal and must not
            // collapse the dial.
            let window = self.depth.max(self.dial.current()).max(1);
            let (ended, waiting) = self.meet.with(|buffer| (buffer.ended, buffer.occupancy()));
            if !ended && self.readers[0].is_empty() && waiting >= 4 * window {
                self.dial.shrink();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ChannelId;
    use crate::recovery::TransformRegistry;
    use crate::source::FnSource;
    use crate::transform::{filter_fn, map_fn, Identity};
    use eden_core::{wire, Metrics};
    use eden_kernel::{reply_pair, Kernel};
    use std::cell::RefCell;
    use std::time::Duration;

    fn int_source(kernel: &Kernel, n: i64) -> Uid {
        let supply = VecSource::new((0..n).map(Value::Int).collect());
        let source = Stage::new(
            Input::Local(Box::new(supply)),
            Output::Passive,
            StageConfig::default(),
        );
        kernel.spawn(Box::new(source)).unwrap()
    }

    fn spawn_acceptor(kernel: &Kernel) -> (Uid, Collector) {
        let collector = Collector::new();
        let acceptor = Stage::new(
            Input::Passive,
            Output::Collector(collector.clone()),
            StageConfig::default(),
        );
        (kernel.spawn(Box::new(acceptor)).unwrap(), collector)
    }

    fn transfer(kernel: &Kernel, from: Uid, max: usize) -> Batch {
        let got = kernel.invoke(
            from,
            ops::TRANSFER,
            TransferRequest::primary(max).to_value(),
        );
        Batch::from_value(got.wait().unwrap()).unwrap()
    }

    // ---- local input, passive output: the source ----

    #[test]
    fn source_checks_the_channel() {
        let kernel = Kernel::new();
        let source = int_source(&kernel, 1);
        let bad = TransferRequest {
            channel: ChannelId::Number(3),
            max: 1,
            pos: None,
        };
        assert!(kernel
            .invoke(source, ops::TRANSFER, bad.to_value())
            .wait()
            .is_err());
        kernel.shutdown();
    }

    #[test]
    fn source_read_past_its_end_is_an_empty_end() {
        let kernel = Kernel::new();
        let source = int_source(&kernel, 1);
        assert!(transfer(&kernel, source, 5).end);
        let again = transfer(&kernel, source, 5);
        assert!(again.end && again.is_empty());
        kernel.shutdown();
    }

    #[test]
    fn source_that_over_delivers_carries_the_excess_over() {
        // A supply that hands back more than it was asked for: the excess
        // waits in the buffer for the next reads, and `end` shows only once
        // it has drained.
        struct Generous(bool);
        impl PullSource for Generous {
            fn pull(&mut self, _max: usize) -> Batch {
                assert!(
                    !std::mem::replace(&mut self.0, true),
                    "pulled after its end"
                );
                Batch::last((0..5).map(Value::Int).collect())
            }
        }
        let kernel = Kernel::new();
        let source = Stage::new(
            Input::Local(Box::new(Generous(false))),
            Output::Passive,
            StageConfig::default(),
        );
        let source = kernel.spawn(Box::new(source)).unwrap();
        let mut seen = Vec::new();
        for (asked, end) in [(2, false), (2, false), (2, true)] {
            let batch = transfer(&kernel, source, asked);
            assert_eq!(batch.end, end);
            seen.extend(batch.items);
        }
        assert_eq!(seen, (0..5).map(Value::Int).collect::<Vec<_>>());
        kernel.shutdown();
    }

    // ---- active input, passive output: the read-only filter ----

    #[test]
    fn lazy_filter_end_to_end() {
        let kernel = Kernel::new();
        let src = int_source(&kernel, 10);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::pull(src),
                Box::new(map_fn("double", |v| Value::Int(v.as_int().unwrap() * 2))),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(filter),
                Output::Collector(collector.clone()),
                StageConfig::batch(4),
            )))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(
            items,
            (0..10).map(|i| Value::Int(i * 2)).collect::<Vec<_>>()
        );
        kernel.shutdown();
    }

    #[test]
    fn read_ahead_filter_end_to_end() {
        let kernel = Kernel::new();
        let src = int_source(&kernel, 50);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::pull(src),
                Box::new(filter_fn("evens", |v| {
                    v.as_int().map(|i| i % 2 == 0).unwrap_or(false)
                })),
                Output::Passive,
                StageConfig {
                    depth: 8,
                    batch: 4,
                    ..Default::default()
                },
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(filter),
                Output::Collector(collector.clone()),
                StageConfig::batch(4),
            )))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items.len(), 25);
        assert_eq!(items[0], Value::Int(0));
        assert_eq!(items[24], Value::Int(48));
        kernel.shutdown();
    }

    #[test]
    fn fan_in_concatenate() {
        let kernel = Kernel::new();
        let a = int_source(&kernel, 3);
        let b = int_source(&kernel, 2);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::ports(
                    vec![InputPort::primary(a), InputPort::primary(b)],
                    FanInMode::Concatenate,
                ),
                Box::new(Identity),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(filter),
                Output::Collector(collector.clone()),
                StageConfig::batch(8),
            )))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(
            items,
            vec![
                Value::Int(0),
                Value::Int(1),
                Value::Int(2),
                Value::Int(0),
                Value::Int(1)
            ]
        );
        kernel.shutdown();
    }

    #[test]
    fn fan_in_zip_pairs_until_shorter_ends() {
        let kernel = Kernel::new();
        let a = int_source(&kernel, 4);
        let b = int_source(&kernel, 2);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::ports(
                    vec![InputPort::primary(a), InputPort::primary(b)],
                    FanInMode::Zip,
                ),
                Box::new(Identity),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(filter),
                Output::Collector(collector.clone()),
                StageConfig::batch(8),
            )))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(
            items,
            vec![
                Value::list(vec![Value::Int(0), Value::Int(0)]),
                Value::list(vec![Value::Int(1), Value::Int(1)]),
            ]
        );
        kernel.shutdown();
    }

    #[test]
    fn read_ahead_with_fan_in() {
        // The prefetch worker owns the multi-port puller: fan-in and
        // read-ahead must compose.
        let kernel = Kernel::new();
        let a = int_source(&kernel, 10);
        let b = int_source(&kernel, 10);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::ports(
                    vec![InputPort::primary(a), InputPort::primary(b)],
                    FanInMode::RoundRobin,
                ),
                Box::new(Identity),
                Output::Passive,
                StageConfig {
                    depth: 8,
                    batch: 4,
                    ..Default::default()
                },
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(filter),
                Output::Collector(collector.clone()),
                StageConfig::batch(4),
            )))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items.len(), 20);
        // The merge delivers each source's full stream exactly once.
        let mut values: Vec<i64> = items.iter().map(|v| v.as_int().unwrap()).collect();
        values.sort_unstable();
        let expected: Vec<i64> = (0..10).flat_map(|i| [i, i]).collect();
        assert_eq!(values, expected);
        kernel.shutdown();
    }

    #[test]
    fn transfer_on_undeclared_channel_fails() {
        let kernel = Kernel::new();
        let src = int_source(&kernel, 1);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::pull(src),
                Box::new(Identity),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap();
        let err = kernel
            .invoke(
                filter,
                ops::TRANSFER,
                TransferRequest {
                    channel: ChannelId::Number(5),
                    max: 1,
                    pos: None,
                }
                .to_value(),
            )
            .wait()
            .unwrap_err();
        assert!(matches!(err, EdenError::NoSuchChannel(_)));
        kernel.shutdown();
    }

    #[test]
    fn empty_source_yields_empty_end() {
        let kernel = Kernel::new();
        let src = int_source(&kernel, 0);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::pull(src),
                Box::new(Identity),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap();
        let got = kernel
            .invoke(
                filter,
                ops::TRANSFER,
                TransferRequest::primary(4).to_value(),
            )
            .wait()
            .unwrap();
        let batch = Batch::from_value(got).unwrap();
        assert!(batch.is_empty() && batch.end);
        kernel.shutdown();
    }

    // ---- active output: the pushing source, the write-only filter ----

    #[test]
    fn push_source_pumps_to_sink() {
        let kernel = Kernel::new();
        let (sink, collector) = spawn_acceptor(&kernel);
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..10).map(Value::Int).collect()))),
                Output::push(sink),
                StageConfig::batch(3),
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (0..10).map(Value::Int).collect::<Vec<_>>());
        kernel.shutdown();
    }

    #[test]
    fn push_filter_transforms_en_route() {
        let kernel = Kernel::new();
        let (sink, collector) = spawn_acceptor(&kernel);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::Passive,
                Box::new(map_fn("neg", |v| Value::Int(-v.as_int().unwrap()))),
                Output::push(sink),
                StageConfig::default(),
            )))
            .unwrap();
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((1..4).map(Value::Int).collect()))),
                Output::push(filter),
                StageConfig::batch(2),
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, vec![Value::Int(-1), Value::Int(-2), Value::Int(-3)]);
        kernel.shutdown();
    }

    #[test]
    fn fan_out_duplicates_stream() {
        // §5: "there is arbitrary fan-out" — one filter, two sinks.
        let kernel = Kernel::new();
        let (sink_a, col_a) = spawn_acceptor(&kernel);
        let (sink_b, col_b) = spawn_acceptor(&kernel);
        let mut wiring = OutputWiring::default();
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink_a));
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink_b));
        assert_eq!(wiring.fan_out(), 2);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::Passive,
                Box::new(Identity),
                Output::Active(wiring),
                StageConfig::default(),
            )))
            .unwrap();
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..5).map(Value::Int).collect()))),
                Output::push(filter),
                StageConfig::batch(2),
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let a = col_a.wait_done(Duration::from_secs(10)).unwrap();
        let b = col_b.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        kernel.shutdown();
    }

    #[test]
    fn push_ahead_buffered_filter_works() {
        let kernel = Kernel::new();
        let (sink, collector) = spawn_acceptor(&kernel);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::Passive,
                Box::new(Identity),
                Output::push(sink),
                StageConfig {
                    depth: 4,
                    ..Default::default()
                },
            )))
            .unwrap();
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..30).map(Value::Int).collect()))),
                Output::push(filter),
                StageConfig::batch(5),
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (0..30).map(Value::Int).collect::<Vec<_>>());
        kernel.shutdown();
    }

    /// Accepts `Write`s and answers none of them until told to `Release`.
    #[derive(Default)]
    struct HeldAcceptor {
        held: Vec<ReplyHandle>,
        released: bool,
        seen: Vec<Value>,
    }

    impl EjectBehavior for HeldAcceptor {
        fn type_name(&self) -> &'static str {
            "HeldAcceptor"
        }

        fn handle(&mut self, _ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
            match inv.op.as_str() {
                ops::WRITE => {
                    self.seen
                        .extend(WriteRequest::from_value(inv.arg).unwrap().items);
                    if self.released {
                        return reply.reply(Ok(Value::Unit));
                    }
                    reply.mark_deferred();
                    self.held.push(reply);
                }
                _ => {
                    self.released = true;
                    self.held
                        .drain(..)
                        .for_each(|held| held.reply(Ok(Value::Unit)));
                    reply.reply(Ok(Value::list(self.seen.clone())));
                }
            }
        }
    }

    #[test]
    fn push_ahead_parks_the_writer_not_the_coordinator() {
        // A full forwarding buffer defers the writer's reply; the filter's
        // coordinator goes on serving. (It used to block in a bounded
        // channel send, on a pool worker, with the writes and everything
        // else addressed to the filter stuck behind it.)
        const K: usize = 2;
        let kernel = Kernel::new();
        let held = kernel.spawn(Box::new(HeldAcceptor::default())).unwrap();
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::Passive,
                Box::new(Identity),
                Output::push(held),
                StageConfig {
                    depth: K,
                    ..Default::default()
                },
            )))
            .unwrap();
        let write = |i: usize| WriteRequest::more(vec![Value::Int(i as i64)]).to_value();
        let mut acks: Vec<_> = (0..K + 2)
            .map(|i| kernel.invoke(filter, ops::WRITE, write(i)))
            .collect();
        let late = acks.split_off(K);
        for ack in acks {
            ack.wait_timeout(Duration::from_secs(10))
                .expect("within the depth");
        }
        // Queued behind the writes, so answered only once each has been seen.
        kernel
            .invoke(filter, ops::DESCRIBE, Value::Unit)
            .wait_timeout(Duration::from_secs(10))
            .expect("the coordinator is not blocked");
        let late: Vec<_> = late
            .into_iter()
            .map(|ack| ack.try_wait().expect_err("beyond the depth: parked"))
            .collect();
        kernel.invoke(held, "Release", Value::Unit).wait().unwrap();
        for ack in late {
            ack.wait_timeout(Duration::from_secs(10))
                .expect("admitted in turn");
        }
        kernel
            .invoke(filter, ops::WRITE, WriteRequest::last(vec![]).to_value())
            .wait()
            .unwrap();
        // The last write is acknowledged once admitted, which may be before
        // the worker has delivered the one ahead of it: ask until it has.
        let expected: Vec<Value> = (0..K + 2).map(|i| Value::Int(i as i64)).collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let seen = loop {
            let seen = kernel.invoke(held, "Release", Value::Unit).wait().unwrap();
            let all = seen.as_list().unwrap().len() == expected.len();
            if all || std::time::Instant::now() > deadline {
                break seen;
            }
            std::thread::yield_now();
        };
        assert_eq!(seen, Value::list(expected));
        kernel.shutdown();
    }

    #[test]
    fn windowed_source_delivers_in_order() {
        let kernel = Kernel::new();
        let (sink, collector) = spawn_acceptor(&kernel);
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..100).map(Value::Int).collect()))),
                Output::push(sink),
                StageConfig {
                    batch: 4,
                    window: 8,
                    ..Default::default()
                },
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (0..100).map(Value::Int).collect::<Vec<_>>());
        kernel.shutdown();
    }

    #[test]
    fn windowed_source_falls_back_on_fan_out() {
        // Two destinations: the window degrades to lock-step, and both
        // sinks still get the full stream.
        let kernel = Kernel::new();
        let (sink_a, col_a) = spawn_acceptor(&kernel);
        let (sink_b, col_b) = spawn_acceptor(&kernel);
        let mut wiring = OutputWiring::default();
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink_a));
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink_b));
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..10).map(Value::Int).collect()))),
                Output::Active(wiring),
                StageConfig {
                    batch: 2,
                    window: 16,
                    ..Default::default()
                },
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        assert_eq!(col_a.wait_done(Duration::from_secs(10)).unwrap().len(), 10);
        assert_eq!(col_b.wait_done(Duration::from_secs(10)).unwrap().len(), 10);
        kernel.shutdown();
    }

    #[test]
    fn zip_push_filter_pairs_with_actively_read_secondary() {
        // §5: primary input pushed in, secondary input actively read.
        let kernel = Kernel::new();
        let (sink, collector) = spawn_acceptor(&kernel);
        let secondary = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::from_lines(["s0", "s1"]))),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap();
        let zipper = kernel
            .spawn(Box::new(Stage::new(
                Input::zipped(secondary),
                Output::push(sink),
                StageConfig::default(),
            )))
            .unwrap();
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::from_lines(["p0", "p1", "p2"]))),
                Output::push(zipper),
                StageConfig::batch(2),
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(
            items,
            vec![
                Value::list(vec![Value::str("p0"), Value::str("s0")]),
                Value::list(vec![Value::str("p1"), Value::str("s1")]),
                // The secondary ran dry: padding with Unit.
                Value::list(vec![Value::str("p2"), Value::Unit]),
            ]
        );
        kernel.shutdown();
    }

    #[test]
    fn start_twice_is_rejected() {
        let kernel = Kernel::new();
        let (sink, _collector) = spawn_acceptor(&kernel);
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new(vec![Value::Int(1)]))),
                Output::push(sink),
                StageConfig::batch(1),
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let err = kernel.invoke(src, "Start", Value::Unit).wait().unwrap_err();
        assert!(matches!(err, EdenError::Application(_)));
        kernel.shutdown();
    }

    #[test]
    fn write_after_end_is_rejected() {
        let kernel = Kernel::new();
        let (sink, _collector) = spawn_acceptor(&kernel);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::Passive,
                Box::new(Identity),
                Output::push(sink),
                StageConfig::default(),
            )))
            .unwrap();
        kernel
            .invoke(filter, ops::WRITE, WriteRequest::last(vec![]).to_value())
            .wait()
            .unwrap();
        let err = kernel
            .invoke(
                filter,
                ops::WRITE,
                WriteRequest::more(vec![Value::Int(1)]).to_value(),
            )
            .wait()
            .unwrap_err();
        assert!(matches!(err, EdenError::Application(_)));
        kernel.shutdown();
    }

    // ---- passive on both faces: the pipe; active on both: the Unix filter ----

    #[test]
    fn buffer_passive_both_faces() {
        let kernel = Kernel::new();
        let buf = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Passive,
                StageConfig {
                    depth: 4,
                    ..Default::default()
                },
            )))
            .unwrap();
        // Read first: parks (passive output with no data).
        let pending = kernel.invoke(buf, ops::TRANSFER, TransferRequest::primary(2).to_value());
        kernel
            .invoke(
                buf,
                ops::WRITE,
                WriteRequest::more(vec![Value::Int(1), Value::Int(2)]).to_value(),
            )
            .wait()
            .unwrap();
        let batch = Batch::from_value(pending.wait().unwrap()).unwrap();
        assert_eq!(batch.items, vec![Value::Int(1), Value::Int(2)]);
        assert!(!batch.end);
        kernel.shutdown();
    }

    #[test]
    fn buffer_parks_writers_when_full() {
        let kernel = Kernel::new();
        let buf = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Passive,
                StageConfig {
                    depth: 2,
                    ..Default::default()
                },
            )))
            .unwrap();
        kernel
            .invoke(
                buf,
                ops::WRITE,
                WriteRequest::more(vec![Value::Int(1), Value::Int(2)]).to_value(),
            )
            .wait()
            .unwrap();
        // Buffer is at capacity: the next write parks.
        let parked = kernel.invoke(
            buf,
            ops::WRITE,
            WriteRequest::more(vec![Value::Int(3)]).to_value(),
        );
        std::thread::sleep(Duration::from_millis(20));
        let occ = kernel.invoke(buf, "Occupancy", Value::Unit).wait().unwrap();
        assert_eq!(occ, Value::Int(2), "parked write must not be admitted yet");
        // Draining readmits the parked write and acks its writer.
        let got = kernel
            .invoke(buf, ops::TRANSFER, TransferRequest::primary(2).to_value())
            .wait()
            .unwrap();
        assert_eq!(Batch::from_value(got).unwrap().len(), 2);
        parked.wait().unwrap();
        let got = kernel
            .invoke(buf, ops::TRANSFER, TransferRequest::primary(2).to_value())
            .wait()
            .unwrap();
        assert_eq!(Batch::from_value(got).unwrap().items, vec![Value::Int(3)]);
        kernel.shutdown();
    }

    #[test]
    fn buffer_end_visible_after_drain() {
        let kernel = Kernel::new();
        let buf = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Passive,
                StageConfig {
                    depth: 8,
                    ..Default::default()
                },
            )))
            .unwrap();
        kernel
            .invoke(
                buf,
                ops::WRITE,
                WriteRequest::last(vec![Value::Int(1)]).to_value(),
            )
            .wait()
            .unwrap();
        let got = kernel
            .invoke(buf, ops::TRANSFER, TransferRequest::primary(4).to_value())
            .wait()
            .unwrap();
        let batch = Batch::from_value(got).unwrap();
        assert_eq!(batch.items, vec![Value::Int(1)]);
        assert!(batch.end);
        kernel.shutdown();
    }

    #[test]
    fn full_conventional_pipeline() {
        // source —W→ [pipe] ←R— pump-filter —W→ [pipe] ←R— sink
        // (Figure 1 with one filter.)
        let kernel = Kernel::new();
        let pipe_in = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Passive,
                StageConfig {
                    depth: 8,
                    ..Default::default()
                },
            )))
            .unwrap();
        let pipe_out = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Passive,
                StageConfig {
                    depth: 8,
                    ..Default::default()
                },
            )))
            .unwrap();
        let _filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::pull(pipe_in),
                Box::new(map_fn("x10", |v| Value::Int(v.as_int().unwrap() * 10))),
                Output::push(pipe_out),
                StageConfig::batch(4),
            )))
            .unwrap();
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..12).map(Value::Int).collect()))),
                Output::push(pipe_in),
                StageConfig::batch(4),
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(pipe_out),
                Output::Collector(collector.clone()),
                StageConfig::batch(4),
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(
            items,
            (0..12).map(|i| Value::Int(i * 10)).collect::<Vec<_>>()
        );
        kernel.shutdown();
    }

    #[test]
    fn small_buffer_still_flows() {
        // Capacity 1 forces constant parking on both faces; the stream
        // must still complete (no deadlock).
        let kernel = Kernel::new();
        let pipe = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Passive,
                StageConfig {
                    depth: 1,
                    ..Default::default()
                },
            )))
            .unwrap();
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..20).map(Value::Int).collect()))),
                Output::push(pipe),
                StageConfig::batch(1),
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(pipe),
                Output::Collector(collector.clone()),
                StageConfig::batch(1),
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items.len(), 20);
        kernel.shutdown();
    }

    #[test]
    fn zipped_pipe_reads_its_secondary_after_answering_a_transfer() {
        // The one pair of faces that may wait after a reply: answering a
        // `Transfer` makes room in a capacity-1 pipe, and admitting the
        // parked `Write` that takes it reads the secondary port. Such a
        // stage must not declare `replies_last` (a debug build would crash
        // it at that read), and must still deliver the zipped stream.
        let kernel = Kernel::new();
        let secondary = int_source(&kernel, 20);
        let pipe = Stage::new(
            Input::zipped(secondary),
            Output::Passive,
            StageConfig {
                depth: 1,
                ..Default::default()
            },
        );
        assert!(!pipe.replies_last());
        let pipe = kernel.spawn(Box::new(pipe)).unwrap();
        let src = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..20).map(Value::Int).collect()))),
                Output::push(pipe),
                StageConfig::batch(1),
            )))
            .unwrap();
        let collector = Collector::new();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(pipe),
                Output::Collector(collector.clone()),
                StageConfig::batch(1),
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        let pairs: Vec<_> = (0..20)
            .map(|i| Value::list(vec![Value::Int(i), Value::Int(i)]))
            .collect();
        assert_eq!(items, pairs);
        kernel.shutdown();
    }

    #[test]
    fn write_after_end_rejected() {
        let kernel = Kernel::new();
        let buf = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Passive,
                StageConfig {
                    depth: 4,
                    ..Default::default()
                },
            )))
            .unwrap();
        kernel
            .invoke(buf, ops::WRITE, WriteRequest::last(vec![]).to_value())
            .wait()
            .unwrap();
        let err = kernel
            .invoke(
                buf,
                ops::WRITE,
                WriteRequest::more(vec![Value::Int(1)]).to_value(),
            )
            .wait()
            .unwrap_err();
        assert!(matches!(err, EdenError::Application(_)));
        kernel.shutdown();
    }

    // ---- retained: what recovery adds to the faces (crate::recovery) ----

    /// What a stage asked of its host, in order.
    #[derive(Debug, PartialEq)]
    enum Event {
        Pull {
            pos: u64,
        },
        Push {
            seq: u64,
            items: Vec<Value>,
            end: bool,
        },
        Checkpoint {
            consumed: u64,
            base: u64,
        },
    }

    /// Stands in for the kernel: serves pulls out of `upstream`,
    /// acknowledges every push, keeps the bytes the stable store would hold
    /// — the last checkpoint, then the entries journaled since — and logs it
    /// all: a durable write of either form is a `Checkpoint` event, and
    /// `carried` says which form each took and the records it was handed.
    #[derive(Default)]
    struct Fake {
        upstream: Vec<Value>,
        log: RefCell<Vec<Event>>,
        stored: RefCell<Vec<Vec<u8>>>,
        carried: RefCell<Vec<(Form, Vec<Value>)>>,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Form {
        Whole,
        Entry,
    }

    impl Host for Fake {
        fn call(&self, _: &mut RouteCache, _: Uid, op: &'static str, arg: Value) -> Result<Value> {
            if op == ops::TRANSFER {
                let req = TransferRequest::from_value(&arg)?;
                let pos = req.pos.expect("stages pull positionally");
                self.log.borrow_mut().push(Event::Pull { pos });
                let from = (pos as usize).min(self.upstream.len());
                let to = (from + req.max).min(self.upstream.len());
                let items = self.upstream[from..to].to_vec();
                return Ok(Batch {
                    items,
                    end: to == self.upstream.len(),
                }
                .to_value());
            }
            assert_eq!(op, ops::WRITE);
            let req = WriteRequest::from_value(arg)?;
            let seq = req.seq.expect("stages push in sequence");
            self.log.borrow_mut().push(Event::Push {
                seq,
                items: req.items,
                end: req.end,
            });
            Ok(Value::Unit)
        }

        fn send(
            &self,
            to: Uid,
            op: &'static str,
            arg: Value,
            how: InvokeOptions<'_>,
        ) -> PendingReply {
            assert!(how.retry.max_retries > 0, "a retained face's calls retry");
            PendingReply::ready(self.call(&mut RouteCache::new(), to, op, arg))
        }

        fn wait(&self, pending: PendingReply) -> Result<Value> {
            pending.wait()
        }

        fn checkpoint(&self, state: &Value) -> Result<()> {
            self.stored.borrow_mut().clear();
            self.store(Form::Whole, state)
        }

        fn journal(&self, entry: &Value) -> Result<()> {
            if self.stored.borrow().is_empty() {
                return Err(EdenError::Application("nothing to journal beside".into()));
            }
            self.store(Form::Entry, entry)
        }
    }

    impl Fake {
        fn store(&self, form: Form, state: &Value) -> Result<()> {
            let uint = |name| Ok::<_, EdenError>(state.field(name)?.as_int()? as u64);
            let (consumed, base) = (uint("consumed")?, uint("base")?);
            self.log
                .borrow_mut()
                .push(Event::Checkpoint { consumed, base });
            let records = state.field("appended")?.as_list()?.to_vec();
            self.carried.borrow_mut().push((form, records));
            self.stored.borrow_mut().push(wire::encode(state));
            Ok(())
        }

        fn pushes(&self) -> Vec<(u64, Vec<Value>, bool)> {
            let log = self.log.borrow();
            let pushes = log.iter().filter_map(|e| match e {
                Event::Push { seq, items, end } => Some((*seq, items.clone(), *end)),
                _ => None,
            });
            pushes.collect()
        }

        fn checkpoints(&self) -> usize {
            let log = self.log.borrow();
            log.iter()
                .filter(|e| matches!(e, Event::Checkpoint { .. }))
                .count()
        }

        /// A `Write` to `s`'s passive input, and its acknowledgement.
        fn write(&self, s: &mut Stage, w: WriteRequest) -> Result<Value> {
            answered(|reply| s.accept(self, w, reply))
        }

        /// A `Transfer` from `s`'s passive output, and its reply.
        fn read(&self, s: &mut Stage, req: TransferRequest) -> Result<Value> {
            answered(|reply| s.serve(self, req, reply))
        }

        /// The stage a crash would bring back: the stored bytes, decoded
        /// and rebuilt the way the kernel's reactivation does it — the
        /// constructor on the checkpoint, then `redo` on each entry.
        fn reactivated(&self) -> Stage {
            let stored = self.stored.borrow();
            let mut states = stored.iter().map(|bytes| wire::decode(bytes).unwrap());
            let mut stage = Kept::reactivate(&states.next().unwrap(), &registry()).unwrap();
            states.for_each(|entry| stage.redo(entry).unwrap());
            stage
        }
    }

    /// What a face answers when asked: a retained one parks nobody.
    fn answered(ask: impl FnOnce(ReplyHandle)) -> Result<Value> {
        let (reply, pending) = reply_pair(Uid::fresh(), Metrics::new());
        ask(reply);
        match pending.try_wait() {
            Ok(answer) => answer,
            Err(_) => panic!("a retained face parked its invoker"),
        }
    }

    fn registry() -> TransformRegistry {
        TransformRegistry::new(&[
            ("double", || {
                Box::new(map_fn("double", |v| {
                    Value::Int(v.as_int().unwrap_or(0) * 2)
                }))
            }),
            ("odd", || {
                Box::new(filter_fn("odd", |v| v.as_int().unwrap_or(0) % 2 == 1))
            }),
            ("sum", || Box::new(RunningSum(0))),
        ])
    }

    /// Emits the sum of its input so far: what it emits next depends on
    /// everything it has seen, and it says so through `state`.
    struct RunningSum(i64);

    impl Transform for RunningSum {
        fn push(&mut self, item: Value, out: &mut transform::Emitter) {
            self.0 += item.as_int().unwrap_or(0);
            out.emit(Value::Int(self.0));
        }
        fn state(&self) -> Option<Value> {
            Some(Value::Int(self.0))
        }
        fn restore(&mut self, state: &Value) -> Result<()> {
            self.0 = state.as_int()?;
            Ok(())
        }
    }

    fn ints(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(Value::Int).collect()
    }

    fn doubled(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(|i| Value::Int(2 * i)).collect()
    }

    /// A retained stage of batch 3 running `transform`, the given faces
    /// active.
    fn retained(transform: &str, active_in: bool, active_out: bool) -> Stage {
        let peer = |active: bool| active.then(Uid::fresh);
        let peers = (peer(active_in), peer(active_out));
        recovery::fresh(transform, &registry(), peers, 3, None).unwrap()
    }

    fn write(seq: u64, items: std::ops::Range<i64>, end: bool) -> WriteRequest {
        WriteRequest {
            channel: Default::default(),
            items: ints(items),
            end,
            seq: Some(seq),
        }
    }

    /// Where a retained stage stands: input taken, output acknowledged, and
    /// the output it still holds.
    fn standing(s: &mut Stage) -> (u64, u64, Vec<Value>) {
        let kept = s.kept.as_ref().expect("a retained stage, its faces here");
        let buf = s.meet.with(|b| b.queues[0].iter().cloned().collect());
        (kept.consumed, kept.base, buf)
    }

    /// The checkpoint `s` would write now, were it to write one whole.
    fn record(s: &mut Stage) -> Value {
        let (kept, input) = (s.kept.as_ref().unwrap(), s.input.as_ref().unwrap());
        let state = input.transform.as_ref().and_then(|t| t.state());
        s.meet.with(|b| kept.record(state, b))
    }

    #[test]
    fn passive_input_face_dedupes_rejects_gaps_and_closes() {
        for active_out in [false, true] {
            let case = format!("output active: {active_out}");
            let host = Fake::default();
            let mut s = retained("double", false, active_out);
            // Everything the stage has let out, by whichever face it has.
            let produced = |s: &mut Stage, host: &Fake| -> Vec<Value> {
                let pushed = host.pushes().into_iter().flat_map(|(_, items, _)| items);
                pushed.chain(standing(s).2).collect()
            };

            // A write that leaves a gap, and one that does not say where it
            // stands (a retry of it could not be told from a fresh write).
            let unsequenced = WriteRequest {
                seq: None,
                ..write(0, 0..3, false)
            };
            for refused in [write(2, 2..4, false), unsequenced] {
                let err = host.write(&mut s, refused).unwrap_err();
                assert!(matches!(err, EdenError::BadParameter(_)), "{case}: {err}");
                assert_eq!((standing(&mut s).0, host.checkpoints()), (0, 0), "{case}");
            }

            host.write(&mut s, write(0, 0..3, false)).unwrap();
            assert_eq!(standing(&mut s).0, 3, "{case}");
            // A re-send that overlaps two accepted records and carries two
            // fresh ones: only the fresh ones go through the transform, and
            // the output position moves once.
            host.write(&mut s, write(1, 1..5, false)).unwrap();
            assert_eq!(standing(&mut s).0, 5, "{case}");
            assert_eq!(produced(&mut s, &host), doubled(0..5), "{case}");
            if active_out {
                let seqs: Vec<u64> = host.pushes().iter().map(|(seq, ..)| *seq).collect();
                assert_eq!((seqs, standing(&mut s).1), (vec![0, 3], 5), "{case}");
            }
            // Checkpoint precedes acknowledge: what the store holds when
            // the write returns is the state that was acknowledged.
            assert_eq!(record(&mut host.reactivated()), record(&mut s), "{case}");

            host.write(&mut s, write(5, 5..6, true)).unwrap();
            assert!(s.input.as_ref().unwrap().flushed, "{case}");
            let closed = (record(&mut s), host.checkpoints(), host.pushes());

            // After the end: a record beyond the accepted position is
            // refused, alone or behind an overlap ...
            for late in [write(6, 6..7, false), write(5, 5..7, true)] {
                let err = host.write(&mut s, late).unwrap_err();
                let want = EdenError::Application("write after end of stream".into());
                assert_eq!(err, want, "{case}");
            }
            // ... and a retry of the final write is acknowledged and
            // changes nothing.
            host.write(&mut s, write(5, 5..6, true)).unwrap();
            assert_eq!(
                (record(&mut s), host.checkpoints(), host.pushes()),
                closed,
                "{case}"
            );
            assert_eq!(produced(&mut s, &host), doubled(0..6), "{case}");
            if active_out {
                let (.., end) = host.pushes().pop().unwrap();
                assert!(end, "{case}: the end of the stream was pushed on");
            }
        }
    }

    #[test]
    fn passive_output_face_acks_trims_and_reserves_byte_identically() {
        for active_in in [false, true] {
            let case = format!("input active: {active_in}");
            let host = Fake {
                upstream: ints(0..8),
                ..Fake::default()
            };
            let mut s = retained("double", active_in, false);
            if !active_in {
                host.write(&mut s, write(0, 0..8, true)).unwrap();
            }
            let read = |s: &mut Stage, pos: u64| {
                let reply = host.read(s, TransferRequest::primary(3).at(pos))?;
                let bytes = wire::encode(&reply);
                Batch::from_value(reply).map(|batch| (batch, bytes))
            };
            // What recovery needs of the store, whatever it holds right now:
            // a base no further on than the reader's last position, so that
            // the stage a crash would bring back answers that position — the
            // reader says it again — with the bytes the live one did. (Its
            // pulls go to a host of its own: two incarnations, one store.)
            let revived = |pos: u64| {
                let mut back = host.reactivated();
                let durable = standing(&mut back).1;
                assert!(
                    durable <= pos,
                    "{case}: durable base {durable} is past {pos}"
                );
                let twin = Fake {
                    upstream: ints(0..8),
                    ..Fake::default()
                };
                let reply = twin.read(&mut back, TransferRequest::primary(3).at(pos));
                wire::encode(&reply.unwrap())
            };

            let (first, first_bytes) = read(&mut s, 0).unwrap();
            assert_eq!((first.items, first.end), (doubled(0..3), false), "{case}");
            // Unacknowledged, so a retry reads the same bytes again.
            assert_eq!(read(&mut s, 0).unwrap().1, first_bytes, "{case}");

            // Position 2 acknowledges exactly records 0 and 1.
            let (second, second_bytes) = read(&mut s, 2).unwrap();
            assert_eq!(second.items, doubled(2..5), "{case}");
            let (_, base, buf) = standing(&mut s);
            assert_eq!((base, buf.first()), (2, Some(&Value::Int(4))), "{case}");
            assert_eq!(revived(2), second_bytes, "{case}");
            assert_eq!(read(&mut s, 2).unwrap().1, second_bytes, "{case}");

            // A position below what is retained, and no position at all
            // (it would acknowledge nothing and read this batch forever).
            let below = read(&mut s, 1).unwrap_err();
            let bare = host.read(&mut s, TransferRequest::primary(3)).unwrap_err();
            for err in [below, bare] {
                assert!(matches!(err, EdenError::BadParameter(_)), "{case}: {err}");
                assert_eq!(standing(&mut s).1, 2, "{case}");
            }
            // A channel the stage never declared — a guessed number, a
            // foreign capability — is refused like any passive output's, and
            // its position acknowledges nothing.
            for channel in [ChannelId::Number(7), ChannelId::Cap(Uid::fresh())] {
                let foreign = TransferRequest {
                    channel,
                    max: 3,
                    pos: Some(5),
                };
                let err = host.read(&mut s, foreign).unwrap_err();
                let refused = matches!(
                    err,
                    EdenError::NoSuchChannel(_) | EdenError::NotAuthorized(_)
                );
                assert!(refused, "{case}: {err}");
                assert_eq!(standing(&mut s).1, 2, "{case}");
            }

            let (third, third_bytes) = read(&mut s, 5).unwrap();
            assert_eq!((third.items, third.end), (doubled(5..8), true), "{case}");
            assert_eq!(revived(5), third_bytes, "{case}");
        }
    }

    #[test]
    fn a_source_read_to_its_end_checkpoints_once_and_reserves_from_birth() {
        let host = Fake::default();
        let source = recovery::fresh("", &registry(), (None, None), 3, Some(ints(0..8))).unwrap();
        let mut s = born(source, &host);
        // A reader may move on by any part of what it was served: every
        // position once, each acknowledging — and trimming — one record more.
        let read = |s: &mut Stage, pos| {
            let reply = host.read(s, TransferRequest::primary(3).at(pos)).unwrap();
            wire::encode(&reply)
        };
        let served: Vec<Vec<u8>> = (0..=8).map(|pos| read(&mut s, pos)).collect();
        let (_, base, buf) = standing(&mut s);
        assert_eq!(
            (base, buf.len()),
            (8, 0),
            "everything acknowledged is forgotten"
        );
        // Nothing was taken or made after birth, so nothing was written: an
        // acknowledgement lets the buffer forget, and recovery needs no
        // record of that.
        assert_eq!(host.checkpoints(), 1);
        for (pos, bytes) in served.iter().enumerate() {
            assert_eq!(
                &read(&mut host.reactivated(), pos as u64),
                bytes,
                "at {pos}"
            );
        }
    }

    #[test]
    fn a_pull_position_is_durable_before_it_is_sent() {
        // `odd` drops half its input, so filling one read takes two pulls.
        // The second pull's position acknowledges the first pull's records
        // upstream; the stage must hold them durably by then.
        let host = Fake {
            upstream: ints(0..12),
            ..Fake::default()
        };
        let mut s = retained("odd", true, false);
        host.read(&mut s, TransferRequest::primary(3).at(0))
            .unwrap();
        use Event::{Checkpoint, Pull};
        assert_eq!(
            *host.log.borrow(),
            [
                Pull { pos: 0 },
                Checkpoint {
                    consumed: 3,
                    base: 0
                },
                Pull { pos: 3 },
                Checkpoint {
                    consumed: 6,
                    base: 0
                },
            ]
        );
    }

    /// One step of a pump's worker, as `work` takes it.
    fn pump(s: &mut Stage, host: &Fake) {
        let (input, output) = (s.input.as_mut().unwrap(), s.output.as_mut());
        let kept = s.kept.as_deref_mut().unwrap();
        let chunk = input.produce(host, kept.batch, Some(kept)).unwrap();
        let input = &*input;
        s.meet
            .with(|b| retain(host, input, output, b, Some(kept), chunk))
            .unwrap();
    }

    /// Birth, as `activate` does it.
    fn born(mut s: Stage, host: &Fake) -> Stage {
        s.kept.as_mut().unwrap().dirty = true;
        s.save(host).unwrap();
        s
    }

    #[test]
    fn state_round_trips_through_a_checkpoint_for_every_pair_of_faces() {
        let faces = [(false, false), (false, true), (true, false), (true, true)];
        // A transform with state, which is part of what round-trips and is
        // only ever written whole, and one without.
        for ((active_in, active_out), transform) in faces.into_iter().zip(["sum", "double"]).chain(
            faces.into_iter().zip(["double", "sum"]),
        ) {
            let case = format!("({active_in}, {active_out}) {transform}");
            let host = Fake {
                upstream: ints(0..40),
                ..Fake::default()
            };
            let mut s = born(retained(transform, active_in, active_out), &host);
            for step in 0..5u64 {
                // Move the stage on by whichever face drives it: a `Write`,
                // a `Transfer` (from a reader that asks for more and
                // acknowledges nothing), or one step of the pump's worker.
                match (active_in, active_out) {
                    (false, _) => {
                        let at = 4 * step as i64;
                        drop(host.write(&mut s, write(4 * step, at..at + 4, false)).unwrap());
                    }
                    (true, false) => {
                        let more = TransferRequest::primary(3 * (step as usize + 1)).at(0);
                        drop(host.read(&mut s, more).unwrap());
                    }
                    (true, true) => pump(&mut s, &host),
                }
                let kept = s.kept.as_ref().unwrap();
                assert!(kept.consumed > 0 && !kept.dirty, "{case} at {step}");
                // Whichever form the step was written in, what comes back is
                // the stage as it stands.
                let mut back = host.reactivated();
                assert_eq!(record(&mut back), record(&mut s), "{case} at {step}");
                assert_eq!(
                    (back.in_passive, back.out_passive),
                    (!active_in, !active_out),
                    "{case}"
                );
                let revived = back.kept.as_deref_mut().unwrap();
                assert!(revived.stored.is_some() && !revived.dirty, "{case}");
                // The rebuilt transform carries on from the input consumed
                // so far, not from zero.
                let seen: i64 = (0..revived.consumed as i64).sum();
                let next = if transform == "sum" { seen + 100 } else { 200 };
                let input = back.input.as_mut().unwrap();
                let mut more = input.absorb(vec![Value::Int(100)], false, Some(revived));
                assert_eq!(more.out.take_primary(), [Value::Int(next)], "{case}");
            }
            // Only a stage that holds what it is not writing has anything to
            // journal: here, the two that nobody takes from.
            let forms: Vec<Form> = host.carried.borrow().iter().map(|(form, _)| *form).collect();
            let holds = !active_out && transform == "double";
            assert_eq!(forms.contains(&Form::Entry), holds, "{case}: {forms:?}");
        }
    }

    #[test]
    fn an_acceptors_write_hands_the_store_that_writes_records_and_no_others() {
        let host = Fake::default();
        let mut s = born(retained("", false, false), &host);
        for k in 0..8 {
            host.write(&mut s, write(3 * k as u64, 3 * k..3 * k + 3, false))
                .unwrap();
            let carried = host.carried.borrow();
            assert_eq!(carried.len() as i64, k + 2, "one durable write a `Write`");
            let (form, records) = carried.last().unwrap();
            assert_eq!(records, &ints(3 * k..3 * k + 3), "write {k}");
            // The first doubles what birth stored (nothing): whole. No later
            // one ever does, for nothing is forgotten.
            assert_eq!(*form == Form::Whole, k == 0, "write {k}");
        }
        assert_eq!(standing(&mut host.reactivated()), (24, 0, ints(0..24)));
        // With state of its own a stage is written whole every time.
        let host = Fake::default();
        let mut s = born(retained("sum", false, false), &host);
        for k in 0..4 {
            host.write(&mut s, write(3 * k as u64, 3 * k..3 * k + 3, false))
                .unwrap();
        }
        let carried = host.carried.borrow();
        assert!(carried.iter().all(|(form, _)| *form == Form::Whole));
        assert_eq!(carried.last().unwrap().1.len(), 12);
    }

    #[test]
    fn a_pushing_sources_acknowledgement_hands_the_store_a_position_and_no_record() {
        let host = Fake::default();
        let peers = (None, Some(Uid::fresh()));
        let source = recovery::fresh("", &registry(), peers, 3, Some(ints(0..48))).unwrap();
        let mut s = born(source, &host);
        // One step of the worker pushes all there is, a batch at a time, and
        // saves after each acknowledgement.
        pump(&mut s, &host);
        assert_eq!(host.pushes().len(), 16);
        let carried = host.carried.borrow();
        let after_birth = &carried[1..];
        assert_eq!(after_birth.len(), 16, "one durable write a push");
        // An entry says how far the supply has been pushed; the supply is
        // written again only once half of what was last written is gone.
        let whole: Vec<usize> = after_birth
            .iter()
            .filter(|(form, _)| *form == Form::Whole)
            .map(|(_, records)| records.len())
            .collect();
        assert_eq!(whole, [24, 12, 6, 3, 0]);
        let entries = after_birth.iter().filter(|(form, _)| *form == Form::Entry);
        assert!(entries.clone().all(|(_, records)| records.is_empty()));
        assert_eq!(entries.count(), 11);
    }

    #[test]
    fn a_backlogged_pipe_journals_the_batch_it_took_and_how_far_it_has_been_read() {
        let host = Fake::default();
        let mut s = born(retained("", false, false), &host);
        let batch = |k: i64| write(3 * k as u64, 3 * k..3 * k + 3, false);
        // Ten batches written before the first is read ...
        for k in 0..10 {
            host.write(&mut s, batch(k)).unwrap();
        }
        // ... then read and written in step. A read takes and makes nothing,
        // so it writes nothing; the write after it says where the read stood.
        for k in 10..40 {
            let writes = host.checkpoints();
            let pos = 3 * (k as u64 - 9);
            host.read(&mut s, TransferRequest::primary(3).at(pos))
                .unwrap();
            assert_eq!(host.checkpoints(), writes, "a read is not a durable write");
            host.write(&mut s, batch(k)).unwrap();
            let (form, records) = host.carried.borrow().last().unwrap().clone();
            match form {
                Form::Entry => assert_eq!(records, ints(3 * k..3 * k + 3), "write {k}"),
                // Folded: all the pipe holds, which is the backlog.
                Form::Whole => assert_eq!(records.len(), 30, "write {k}"),
            }
            assert_eq!(standing(&mut host.reactivated()), standing(&mut s), "write {k}");
            assert_eq!(standing(&mut s).1, pos);
        }
        // Six records journaled or forgotten a round against thirty held:
        // whole every fifth write, an entry the other four.
        let carried = host.carried.borrow();
        let folds = carried[11..].iter().filter(|(form, _)| *form == Form::Whole);
        assert_eq!(folds.count(), 6);
    }

    #[test]
    fn a_reactivated_stage_writes_nothing_until_it_takes_something() {
        let kernel = Kernel::new();
        recovery::install_recovery(&kernel, &registry());
        let acceptor = kernel
            .spawn(Box::new(retained("", false, false)))
            .unwrap();
        let send = |seq: u64| {
            let w = write(seq, seq as i64..seq as i64 + 10, false).to_value();
            kernel.invoke(acceptor, ops::WRITE, w).wait().unwrap();
        };
        (0..10).for_each(|k| send(10 * k));
        let before = kernel.metrics().snapshot();
        // Birth and ten writes; nine of them journaled ten records each.
        assert_eq!((before.checkpoints, before.journal_entries), (11, 9));
        kernel.crash(acceptor).unwrap();
        kernel
            .invoke(acceptor, ops::DESCRIBE, Value::Unit)
            .wait()
            .unwrap();
        let woken = kernel.metrics().snapshot().since(&before);
        assert_eq!((woken.reactivations, woken.recovered_streams), (1, 1));
        assert_eq!(woken.checkpoints, 0, "it is its stable state: nothing to write");
        send(100);
        let after = kernel.metrics().snapshot().since(&before);
        assert_eq!((after.checkpoints, after.journal_entries), (1, 1));
        let all = kernel.invoke(acceptor, READ_ALL, Value::Unit).wait();
        assert_eq!(Batch::from_value(all.unwrap()).unwrap().items, ints(0..110));
        kernel.shutdown();
    }

    // ---- collector output: the pumping sink, the acceptor ----

    #[test]
    fn sink_pumps_source_dry() {
        let kernel = Kernel::new();
        let source = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..20).map(Value::Int).collect()))),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap();
        let collector = Collector::new();
        let _sink = kernel
            .spawn(Box::new(Stage::new(
                Input::pull(source),
                Output::Collector(collector.clone()),
                StageConfig::batch(4),
            )))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (0..20).map(Value::Int).collect::<Vec<_>>());
        kernel.shutdown();
    }

    #[test]
    fn sink_reports_progress() {
        let kernel = Kernel::new();
        let source = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(VecSource::new((0..5).map(Value::Int).collect()))),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap();
        let collector = Collector::new();
        let sink = kernel
            .spawn(Box::new(Stage::new(
                Input::pull(source),
                Output::Collector(collector.clone()),
                StageConfig::batch(1),
            )))
            .unwrap();
        collector.wait_done(Duration::from_secs(10)).unwrap();
        let got = kernel.invoke(sink, "Progress", Value::Unit).wait().unwrap();
        assert_eq!(got, Value::Int(5));
        kernel.shutdown();
    }

    #[test]
    fn sink_observes_source_crash() {
        // A source that never ends, then crashes: the sink must fail the
        // collector, not hang.
        let kernel = Kernel::new();
        let source = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(FnSource::new(u64::MAX, |i| Value::Int(i as i64)))),
                Output::Passive,
                StageConfig::default(),
            )))
            .unwrap();
        let collector = Collector::null();
        let _sink = kernel
            .spawn(Box::new(Stage::new(
                Input::pull(source),
                Output::Collector(collector.clone()),
                StageConfig::batch(2),
            )))
            .unwrap();
        while collector.records_seen() < 4 {
            std::thread::sleep(Duration::from_millis(1));
        }
        kernel.crash(source).unwrap();
        let err = collector.wait_done(Duration::from_secs(10)).unwrap_err();
        // Depending on timing the pump observes the crash of its in-flight
        // Transfer or the source's subsequent disappearance; both are
        // correct reports of the fault.
        assert!(
            matches!(err, EdenError::EjectCrashed(u) | EdenError::NoSuchEject(u) if u == source),
            "unexpected error: {err}"
        );
        kernel.shutdown();
    }

    #[test]
    fn acceptor_accepts_writes_until_end() {
        let kernel = Kernel::new();
        let collector = Collector::new();
        let acceptor = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Collector(collector.clone()),
                StageConfig::default(),
            )))
            .unwrap();
        kernel
            .invoke(
                acceptor,
                ops::WRITE,
                WriteRequest::more(vec![Value::Int(1), Value::Int(2)]).to_value(),
            )
            .wait()
            .unwrap();
        kernel
            .invoke(
                acceptor,
                ops::WRITE,
                WriteRequest::last(vec![Value::Int(3)]).to_value(),
            )
            .wait()
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(5)).unwrap();
        assert_eq!(items, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        kernel.shutdown();
    }

    #[test]
    fn acceptor_cannot_distinguish_writers() {
        // Two writers interleave; the acceptor sees one merged stream.
        // This is the §5 "no fan-in" property made concrete.
        let kernel = Kernel::new();
        let collector = Collector::new();
        let acceptor = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Collector(collector.clone()),
                StageConfig::default(),
            )))
            .unwrap();
        for writer in 0..2i64 {
            for i in 0..3i64 {
                kernel
                    .invoke(
                        acceptor,
                        ops::WRITE,
                        WriteRequest::more(vec![Value::Int(writer * 10 + i)]).to_value(),
                    )
                    .wait()
                    .unwrap();
            }
        }
        kernel
            .invoke(acceptor, ops::WRITE, WriteRequest::last(vec![]).to_value())
            .wait()
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(5)).unwrap();
        assert_eq!(
            items.len(),
            6,
            "all records land in one undifferentiated stream"
        );
        kernel.shutdown();
    }

    #[test]
    fn acceptor_rejects_malformed_write() {
        let kernel = Kernel::new();
        let acceptor = kernel
            .spawn(Box::new(Stage::new(
                Input::Passive,
                Output::Collector(Collector::new()),
                StageConfig::default(),
            )))
            .unwrap();
        let err = kernel
            .invoke(acceptor, ops::WRITE, Value::Int(3))
            .wait()
            .unwrap_err();
        assert!(matches!(err, EdenError::BadParameter(_)));
        kernel.shutdown();
    }
}
