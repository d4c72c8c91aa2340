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
//! | active | local | the sink that pumps a read-only pipeline (§4): a collector, or a file opened for output | `StreamSink` | — (the run itself pulls a read-only tail) |
//! | local | active | the source that pumps a write-only pipeline (§5) | `PushSource` | write-only source; starts unasked |
//! | passive | active | write-only filter | `PushFilter` | write-only `stage{i}` |
//! | passive | local | acceptor: "always ready to accept" writes (§5) | `AcceptorSink` | — (the acceptor is the pipe below) |
//! | passive | passive | the Unix pipe, Figure 1's passive buffer | `PassiveBuffer` | `buf{i}`; the acceptor, which answers `Close` once its stream has ended, and `ReadAll` |
//! | active | active | the Unix filter: transforms *and pumps* (§3) | `PumpFilter` | conventional `stage{i}`, or the lone `pump`; starts unasked |
//! | passive + one port read actively | active | §5's "secondary inputs, which are actively read" | `ZipPushFilter` | — |
//! | program | passive | §4's standard IO module: a program that `write`s, as the read-ahead process ([`crate::stdio::program_source`]) | `ProgramSource` | — |
//! | passive | program | its §5 dual: a program that `read`s, as the push-ahead process ([`crate::stdio::program_sink`]) | `ProgramSink` | — |
//! | local | passive | the disposable reader `Open` and `NewStream` mint (§7): answers `Close`, gone once read out ([`Stage::reader`]) | `DisposableReader` | — (`OpenDurable` mints the retained source above) |
//! | active or passive | local | its dual, the disposable writer `WriteFrom` and `UseStream` mint: gone once its stream has ended into the file ([`Stage::writer`]) | `DisposableWriter` | — |
//! | active, labelled ports | local | Figure 4's report window ([`crate::devices::report_window`]) | `StreamSink` | — |
//!
//! ## Faces
//!
//! * A **passive input** accepts `Write`. It cannot tell its writers apart
//!   — one writer making k writes looks like k writers making one each —
//!   which is exactly why write-only transput has no controlled fan-in
//!   (§5). The first `end` closes the stream for everyone; a record written
//!   later is refused.
//! * An **active input** holds [`InputPort`]s and `Transfer`s from them,
//!   interleaved by a [`FanInMode`]: "if F needs n inputs, it maintains n
//!   UIDs" (§5). A **local** input is no face at all, just a
//!   [`PullSource`]; nor is a **program**, which is the process of the
//!   sections below handed a conventional `write` or `read` ([`crate::stdio`]).
//! * A **passive output** serves `Transfer` from per-channel buffers and
//!   parks a reader it cannot serve yet (a deferred reply — "it will be sent
//!   to whatever Eject requests it", §4). Fan-out needs the channel
//!   identifiers of §5: `GetChannel` hands them out from a [`ChannelTable`].
//! * An **active output** `Write`s into an [`OutputWiring`]; a **local**
//!   output is no face at all, just a [`PushSink`]: a collector that lands
//!   the records where a test or a terminal can see them, or a file.
//!
//! ## Depth: how far the step runs ahead
//!
//! The active face is run by the stage's step, and only there: a handler of
//! the passive face takes in what its request says, parks its caller, and
//! leaves the rest to the step. Every call a step makes is polled, never
//! waited for — "the sending of an invocation does not suspend the execution
//! of the sending Eject" (§1): a reply that is not in ends the step, and its
//! settle posts the next. [`StageConfig::depth`] is the buffer between the
//! faces, and decides when the step runs and how far ahead.
//!
//! * **Depth 0** runs it on demand: the handler takes a step on the spot,
//!   under the invocation's own span, for the caller it has just parked. A
//!   read-only filter is then *lazy* — "no computation need be done until
//!   the result is requested" (§4): its step pulls what its first parked
//!   reader wants, so no data moves anywhere until a sink starts reading. A
//!   write-only filter is a *rendezvous*: its writer waits until the
//!   downstream has acknowledged what the write came to. Where every call
//!   settles at once — its callee run on this thread by the call election —
//!   the caller is answered as the handler's last act and nothing is
//!   posted, so a lazy chain of n stages is n + 1 nested calls on one stack.
//! * **Depth > 0** is §4's "each Eject in a pipeline should read some input
//!   and buffer-up some output, and then suspend processing pending a
//!   request for output. In this way all the Ejects in a pipeline can run
//!   concurrently" — and its dual for writers. The step runs ahead of the
//!   handlers and meets them at the buffer: a read-ahead step fills it while
//!   fewer than `depth` records wait to be read; a push-ahead step drains
//!   it, and a writer that finds `depth` writes still undelivered is parked
//!   (its reply deferred). A pipe's depth is its capacity.
//! * A stage with **no passive face** has nobody to drive it, so its step
//!   runs both faces whatever the depth: the sink's pump, the conventional
//!   filter, and the pushing source, which waits for `Start` and answers it
//!   when the last write has been acknowledged — `Start` is "run the
//!   pipeline".
//!
//! ## The process: steps on the coordinator
//!
//! A stage's process is no thread: its own coordinator runs it a step at a
//! time between the invocations it handles — in a handler at depth 0, else
//! from `internal` — up to `CHUNKS_A_STEP` chunks while every call settles
//! at once, then the next step posted to its own mailbox. A reply that is
//! not in is kept, and its settle posts the step that picks up from there;
//! meanwhile the stage costs what a parked Eject costs. Only a **program**
//! ([`crate::stdio`]) keeps a thread, and shares the buffer as a [`Shared`]
//! one. The posts are internal events, metered as language-level IPC rather
//! than as invocations — the distinction the paper's cost argument rests on.
//!
//! ## Retention: what the stage has not been told to forget
//!
//! The faces speak positions: a `Write` may say where its first record
//! stands, a `Transfer` which record it wants first, and an absent position
//! means "next" — all a volatile stage ever says or hears. A retained stage
//! (`Stage::retained`) counts, and differs at two kinds of site only.
//! *When the buffer may forget:* not what it serves or sends but what the
//! position of a later `Transfer`, or the reply to a `Write`, acknowledges —
//! so it parks no writer for room, and holds everything between two passive
//! faces that nobody reads by position; a reader it parks as a volatile
//! stage does, and a crash abandons to a retry. *What an acknowledgement
//! waits for:* a durable write whenever the stage has taken or made something
//! (`retain`, `save`) — of what changed, or of the stage whole — and nothing
//! when a reader's position only lets it forget. Its step pushes a batch
//! (`push`), and forgets and saves it once the reply is polled in. It calls
//! its peers as a volatile stage does (`Host::call`), under a retry policy.

use std::collections::VecDeque;
use std::sync::Arc;

use eden_core::op::ops;
use eden_core::{EdenError, OpName, Result, Uid, Value};
use eden_kernel::{
    EjectBehavior, EjectContext, Invocation, InvokeOptions, PendingReply, ProcessContext,
    ReplyHandle, RouteCache,
};

use crate::channels::{unknown, ChannelPolicy, ChannelTable};
use crate::ports::{deliver, FanInMode, InputPort, InputPuller, OutputPort, OutputWiring};
use crate::protocol::{
    Batch, ChannelId, GetChannelRequest, TransferRequest, WriteRequest, OUTPUT_NAME,
};
use crate::recovery::{self, Kept, READ_ALL};
use crate::source::{Caller, PullSource, PushSink};
use crate::stdio::{Program, TransputReader, TransputWriter};
use crate::transform::{self, Emitter, Transform};
use parking_lot::{Condvar, Mutex};

/// Starts the process of a stage that pumps a local supply.
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
    /// (§5).
    Zipped(InputPuller),
    /// `Transfer` from ports. Built by [`Input::pull`] or [`Input::ports`].
    Active(InputPuller),
    /// Draw on a local supply of records.
    Local(Box<dyn PullSource>),
    /// Let an imperative program write the records, conventionally: §4's
    /// standard IO module ([`crate::stdio`]). The program *is* the stage's
    /// read-ahead process, on a thread of its own, so the output face is
    /// passive and a `depth` of 0 means `crate::stdio::BUFFER`.
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
    pub(crate) fn labelled(ports: Vec<(String, InputPort)>) -> Input {
        let (labels, ports) = ports.into_iter().unzip();
        Input::Active(InputPuller::new(ports, FanInMode::RoundRobin).labelled(labels))
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
    /// Push the primary stream into a local sink, end it at end-of-stream,
    /// or fail it when the input does: the dual of [`Input::Local`].
    Local(Box<dyn PushSink>),
    /// Let an imperative program read the records, conventionally: the §5
    /// dual of [`Input::Program`]. The program is the stage's push-ahead
    /// process, so the input face is passive, and `depth` as there.
    Program(Program<TransputReader>),
}

impl Output {
    /// Active output into one Eject's primary input.
    pub fn push(uid: Uid) -> Output {
        Output::Active(OutputWiring::primary_to(OutputPort::primary(uid)))
    }

    /// Output into a local sink.
    pub fn local(sink: impl PushSink) -> Output {
        Output::Local(Box::new(sink))
    }
}

/// Tuning for a [`Stage`]. Every field has a neutral default.
#[derive(Debug, Clone)]
pub struct StageConfig {
    /// Records an active face moves per invocation.
    pub batch: usize,
    /// The buffer between the faces (module docs): records a read-ahead
    /// process keeps waiting, writes a push-ahead process may have in hand,
    /// records a pipe holds before it parks its writers. 0 = no process
    /// but where no passive face is.
    pub depth: usize,
    /// How a passive output's channel identifiers are minted.
    pub policy: ChannelPolicy,
    /// Writes an active output keeps in flight: "the sending of an
    /// invocation does not suspend the execution of the sending Eject"
    /// (§1), exploited for pipelining. Acknowledgements are collected in
    /// order; 1 is the synchronous rendezvous, which a passive input at
    /// depth 0 always is. Windowing needs a single destination — fan-out
    /// wiring stays at 1 so every peer is in lock-step.
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
            depth: 0,
            policy: ChannelPolicy::Integer,
            window: 1,
        }
    }
}

/// Chunks one step of a process moves while every call it makes settles at
/// once, before it posts the next step (module docs).
const CHUNKS_A_STEP: usize = 16;

/// What a face needs from whoever runs it — the Eject's coordinator, or a
/// recording fake in the tests below: call a peer through the face's route
/// cache, under a retry policy if the face is retained; have a reply's
/// outcome if it is in — nothing waits for one, and one that is not in posts
/// the stage its next step as it settles; post the stage its next step; and
/// write its passive representation, whole or one entry more.
pub(crate) trait Host: Caller {
    fn call(
        &self,
        cache: &mut RouteCache,
        retained: bool,
        to: Uid,
        op: &'static str,
        arg: Value,
    ) -> PendingReply;
    fn poll(&self, pending: &mut PendingReply) -> Option<Result<Value>>;
    fn nudge(&self);
    fn checkpoint(&self, state: &Value) -> Result<()>;
    fn journal(&self, entry: &Value) -> Result<()>;
}

impl Host for EjectContext {
    /// A call through the face's route cache, which may run its callee on
    /// this thread; a retained face's rides out a crash of its peer under
    /// the options that retry it ([`crate::recovery`], 3).
    fn call(
        &self,
        cache: &mut RouteCache,
        retained: bool,
        to: Uid,
        op: &'static str,
        arg: Value,
    ) -> PendingReply {
        let opts = match retained {
            true => recovery::stream_opts(),
            false => InvokeOptions::new(),
        };
        self.begin_call(to, OpName::from_static(op), arg, opts.route_cache(cache))
    }
    fn poll(&self, pending: &mut PendingReply) -> Option<Result<Value>> {
        self.poll_reply(pending)
    }
    fn nudge(&self) {
        EjectContext::nudge(self)
    }
    fn checkpoint(&self, state: &Value) -> Result<()> {
        EjectContext::checkpoint(self, state)
    }
    fn journal(&self, entry: &Value) -> Result<()> {
        EjectContext::journal(self, entry)
    }
}

impl Caller for EjectContext {
    fn uid(&self) -> Uid {
        EjectContext::uid(self)
    }
    fn invoke(&self, to: Uid, op: &'static str, arg: Value) -> Result<Value> {
        self.call(to, OpName::from_static(op), arg)
    }
}

/// What one step of input came to, once through the transform.
#[derive(Debug, Default)]
pub(crate) struct Chunk {
    pub(crate) out: Emitter,
    /// The input has ended and the transform has flushed into `out`.
    pub(crate) end: bool,
}

/// An active input's calls: its upstream routes, learned on first use, and
/// a step of input on its way — the `Transfer`s still out, the batches in —
/// kept with its face, so that a step of input allocates nothing.
#[derive(Debug, Default)]
struct Pull {
    cache: RouteCache,
    out: VecDeque<PendingReply>,
    got: Vec<Batch>,
}

/// The input face and the transform step behind it.
#[derive(Debug)]
pub(crate) struct InFace {
    face: Input,
    /// `None` copies.
    pub(crate) transform: Option<Box<dyn Transform>>,
    /// The input has ended and the transform has flushed.
    flushed: bool,
    /// Its calls (and, written to a zipped input, its secondary's).
    pulling: Pull,
    /// Writes to a zipped input still to be paired, oldest first, and how
    /// many records of the first are.
    unpaired: VecDeque<WriteRequest>,
    paired: usize,
}

impl Pull {
    /// One step of `puller`'s input: up to `max` records, from `pos` if the
    /// face keeps count, and whether it ended — `None` while a reply is out.
    /// Its `Transfer`s go out together, one a port under `Zip`, and are taken
    /// in the order asked.
    fn next(
        &mut self,
        puller: &mut InputPuller,
        host: &impl Host,
        max: usize,
        pos: Option<u64>,
    ) -> Option<Result<(Vec<Value>, bool)>> {
        if self.out.is_empty() {
            let (ports, max) = puller.asks(max);
            for port in ports {
                let InputPort { uid, channel } = puller.port(port);
                let arg = TransferRequest { channel, max, pos }.to_value();
                self.out.push_back(host.call(
                    &mut self.cache,
                    pos.is_some(),
                    uid,
                    ops::TRANSFER,
                    arg,
                ));
            }
        }
        while let Some(front) = self.out.front_mut() {
            let batch = host.poll(front)?.and_then(Batch::from_value);
            self.out.pop_front();
            match batch {
                Ok(batch) => self.got.push(batch),
                Err(e) => {
                    self.out.clear();
                    self.got.clear();
                    return Some(Err(e));
                }
            }
        }
        Some(Ok(puller.complete(&mut self.got)))
    }
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

    /// A zipped input's oldest write, every record paired with one read
    /// from the secondary port — `Value::List([written, read])`, `Unit` once
    /// the port runs dry — and through the transform. `None` while no write
    /// waits, or a read is out: the pairs made so far wait with it.
    fn zip(&mut self, host: &impl Host) -> Option<Chunk> {
        let Input::Zipped(secondary) = &mut self.face else {
            unreachable!("only a zipped input pairs");
        };
        let w = self.unpaired.front_mut()?;
        while let Some(item) = w.items.get_mut(self.paired) {
            let read = self.pulling.next(secondary, host, 1, None)?;
            let (read, _) = read.unwrap_or_else(|_| {
                secondary.done = true;
                (Vec::new(), true)
            });
            let read = read.into_iter().next().unwrap_or(Value::Unit);
            *item = Value::list(vec![std::mem::replace(item, Value::Unit), read]);
            self.paired += 1;
        }
        let w = self.unpaired.pop_front()?;
        self.paired = 0;
        Some(self.absorb(w.items, w.end, None))
    }

    /// The active face: one step of input, `ask` records of it — pulled at
    /// `kept`'s position, where the stage keeps one. `None` while a reply
    /// is out.
    fn produce(
        &mut self,
        host: &impl Host,
        ask: usize,
        kept: Option<&mut Kept>,
    ) -> Option<Result<Chunk>> {
        let (items, end) = match &mut self.face {
            Input::Local(source) => {
                let pulled = source.pull(ask);
                eden_core::stream::note_emitted(pulled.items.len());
                (pulled.items, pulled.end)
            }
            Input::Active(puller) => {
                let pos = kept.as_ref().map(|kept| kept.consumed);
                match self.pulling.next(puller, host, ask, pos)? {
                    Ok(pulled) => pulled,
                    Err(e) => return Some(Err(e)),
                }
            }
            Input::Passive | Input::Zipped(_) => unreachable!("a passive input is written to"),
            Input::Program(_) => unreachable!("a program is its own process"),
        };
        Some(Ok(self.absorb(items, end, kept)))
    }
}

/// The output face.
#[derive(Debug)]
struct OutFace {
    face: Output,
    /// Downstream routes, learned on first use.
    cache: RouteCache,
    /// Writes out at once; 1 under fan-out ([`StageConfig::window`]).
    window: usize,
    /// Writes sent and not yet acknowledged, oldest first.
    in_flight: VecDeque<PendingReply>,
    /// The end of the stream has been given to the face.
    ended: bool,
}

impl OutFace {
    /// The active face: deliver a chunk — at `seq`, where the stage keeps
    /// count. `end` is forwarded on every wired channel so downstream
    /// streams close. Every `Write` is a call whose reply joins `in_flight`,
    /// for [`reap`](Self::reap). A local output takes the chunk at once.
    fn consume(&mut self, host: &impl Host, mut chunk: Chunk, seq: Option<u64>) -> Result<()> {
        self.ended |= chunk.end;
        let wiring = match &mut self.face {
            Output::Active(wiring) => &*wiring,
            Output::Local(sink) => {
                let items = chunk.out.take_primary();
                if !items.is_empty() {
                    sink.push(items);
                }
                return if chunk.end { sink.end(host) } else { Ok(()) };
            }
            Output::Passive => unreachable!("a passive output is read from"),
            Output::Program(_) => unreachable!("a program is its own process"),
        };
        let (cache, in_flight) = (&mut self.cache, &mut self.in_flight);
        deliver(wiring, &mut chunk.out, chunk.end, seq, &mut |port, arg| {
            in_flight.push_back(host.call(cache, seq.is_some(), port.uid, ops::WRITE, arg));
        });
        Ok(())
    }

    /// Take acknowledgements in, oldest first, until fewer than `window`
    /// writes are out — none, once the end of the stream is. `None` while
    /// one that must be in is not.
    fn reap(&mut self, host: &impl Host) -> Option<Result<()>> {
        while self.in_flight.len() >= self.window || (self.ended && !self.in_flight.is_empty()) {
            let front = self.in_flight.front_mut().expect("non-empty checked");
            let acknowledged = host.poll(front)?;
            self.in_flight.pop_front();
            if let Err(e) = acknowledged {
                return Some(Err(e));
            }
        }
        Some(Ok(()))
    }
}

/// The buffer between the faces, where the process and the handlers meet.
/// What it holds goes by the output face it feeds: a passive output keeps
/// records, per channel, until they are read; an active one forwards write
/// for write, so it keeps what each accepted `Write` came to until the
/// process has delivered it.
#[derive(Debug, Default)]
pub(crate) struct Buffer {
    /// A passive output's channels and their queues (else empty).
    table: ChannelTable,
    pub(crate) queues: Vec<VecDeque<Value>>,
    /// An active output's undelivered writes, and whether the process has
    /// one more in hand.
    pub(crate) writes: VecDeque<Chunk>,
    pub(crate) delivering: bool,
    /// The final chunk has been put.
    pub(crate) ended: bool,
    /// The process is through with it — it failed, or a disposable stage's
    /// is done — or, shared with a program, the coordinator is gone.
    closed: bool,
}

impl Buffer {
    pub(crate) fn put(&mut self, mut chunk: Chunk) -> Result<()> {
        if self.closed {
            return Err(EdenError::Application("forwarding process gone".into()));
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

    /// Hand the process the oldest undelivered write; it counts against the
    /// depth until the process reports back.
    pub(crate) fn take_write(&mut self) -> Option<Chunk> {
        let chunk = self.writes.pop_front()?;
        self.delivering = true;
        Some(chunk)
    }
}

/// A buffer its coordinator shares with a program's thread: a mutex and one
/// condition either side may wait on. The program wakes the coordinator by
/// internal message: metered, language-level IPC.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) queue: Mutex<Buffer>,
    /// Signalled when space frees (producer side) or data arrives
    /// (consumer side).
    changed: Condvar,
}

/// The coordinator's hold on the buffer: its own, or shared from the moment
/// a program is spawned. Dropping it — deactivation, crash, a panicking
/// handler — closes a shared buffer and releases a program waiting there.
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

    /// Share the buffer with a program (and let it know of every change).
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

/// On a program's own thread: wait at the buffer until `ready` yields, or
/// the buffer closes or the Eject stops.
pub(crate) fn await_buffer<R>(
    meet: &Shared,
    pctx: &ProcessContext,
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
        // eden-lint: nonblocking(a program's own thread from spawn_process, not a pool worker)
        meet.changed.wait(&mut buffer);
    }
}

/// Put a chunk in the buffer, which is all a volatile stage does with it.
/// A retained one (`kept`) then pushes what the buffer holds if its output
/// is active ([`push`]), and checkpoints: before whoever gave the chunk hears
/// of it or is asked for more. A passive output has nothing to push: it
/// delivers by retaining, and its reader will come.
fn retain(
    host: &impl Host,
    input: &InFace,
    output: Option<&mut OutFace>,
    buffer: &mut Buffer,
    kept: Option<&mut Kept>,
    chunk: Chunk,
) -> Result<Flow> {
    buffer.put(chunk)?;
    let Some(kept) = kept else {
        return Ok(Flow::Moved);
    };
    if let Some(output) = output {
        if let Flow::Stop = push(host, input, output, buffer, kept, true)? {
            return Ok(Flow::Stop);
        }
    }
    kept.save(host, input, buffer)?;
    Ok(Flow::Moved)
}

/// A retained active output: take in the acknowledgement of the batch out,
/// if one is, forget what it acknowledges and checkpoint — so that a crash
/// resumes from the last acknowledged position, and the receiver's sequence
/// arithmetic absorbs the one batch that may be re-sent; then, for `more`,
/// `Write` the next batch the buffer holds, at `base`, and so on while each
/// acknowledgement is in at once. `Stop` while one is not: nothing is
/// forgotten or saved for a batch until its acknowledgement is in.
fn push(
    host: &impl Host,
    input: &InFace,
    output: &mut OutFace,
    buffer: &mut Buffer,
    kept: &mut Kept,
    more: bool,
) -> Result<Flow> {
    loop {
        if let Some((n, end)) = kept.sent {
            let Some(acknowledged) = output.reap(host) else {
                return Ok(Flow::Stop);
            };
            kept.sent = None;
            acknowledged?;
            kept.forget(&mut buffer.queues[0], n);
            (kept.out_end, kept.dirty) = (end, true);
            kept.save(host, input, buffer)?;
        }
        let next = buffer.read(0, kept.batch, 1, true);
        let Some(Batch { items, end }) = next.filter(|_| more && !kept.out_end) else {
            return Ok(Flow::Moved);
        };
        let (n, out) = (items.len(), Emitter::of(items));
        output.consume(host, Chunk { out, end }, Some(kept.base))?;
        kept.sent = Some((n, end));
    }
}

/// What a chunk of a step came to: it went through; or nothing more can go
/// until a reply that is out settles, a reader or a writer comes, or ever.
enum Flow {
    Moved,
    Stop,
}

/// Where a stage's process stands between two steps.
#[derive(Debug, Default)]
struct Process {
    /// It runs ahead of its callers (module docs): from activation, or from
    /// `Start` — whose reply waits for the stream to be delivered whole — it
    /// is posted a step after every invocation, until the stream is through
    /// or has failed.
    started: bool,
    done: bool,
    start: Option<ReplyHandle>,
    /// The next step is on its way: posted, or to be posted by a reply.
    next: bool,
    /// The span its posted steps' invocations go out under: its starter's,
    /// or the last caller a handler took a step for.
    ambient: Option<eden_core::span::SpanContext>,
}

/// One stream stage: see the module docs.
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    input: InFace,
    output: OutFace,
    /// Their modes (a local input counts as active).
    in_passive: bool,
    out_passive: bool,
    /// Records an active face moves per invocation.
    batch: usize,
    depth: usize,
    meet: Meet,
    process: Process,
    /// Parked `Transfer`s (how many records, whose reply), per channel.
    readers: Vec<VecDeque<(usize, ReplyHandle)>>,
    /// Parked `Write`s: a passive input whose buffer is at capacity.
    writers: VecDeque<(WriteRequest, ReplyHandle)>,
    /// Writers a rendezvous has taken in, answered once the stage has
    /// delivered all it holds.
    acks: VecDeque<ReplyHandle>,
    /// What a retained stage keeps beside all this ([`crate::recovery`]);
    /// `None` on a volatile one.
    kept: Option<Box<Kept>>,
    /// Deactivates once its stream has been read to the end, or has ended
    /// into its local output — and, never having checkpointed, disappears
    /// (§7). A reader answers `Close` at once; an acceptor parks it
    /// (`closing`) until its stream has ended, and answers how (`ended`), as
    /// a retained passive input does too.
    disposable: bool,
    closing: Option<ReplyHandle>,
    ended: Option<Result<Value>>,
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
    pub fn reader(supply: impl PullSource) -> Stage {
        let supply = Input::Local(Box::new(supply));
        let mut stage = Stage::new(supply, Output::Passive, StageConfig::default());
        (stage.name, stage.disposable) = ("DisposableReader", true);
        stage
    }

    /// Its dual, the stream a file is opened by for output (§4, §7's
    /// `UseStream`): a private, disposable stage whose output is `sink`.
    /// Given a `source`, it pulls from it at once, `BATCH` records a
    /// `Transfer`, "until it received an end of file indicator"; given none,
    /// it is an acceptor, and answers `Close` once its stream has ended.
    pub fn writer(source: Option<Uid>, sink: impl PushSink) -> Stage {
        const BATCH: usize = 64;
        let input = source.map_or(Input::Passive, Input::pull);
        let mut stage = Stage::new(input, Output::local(sink), StageConfig::batch(BATCH));
        (stage.name, stage.disposable) = ("DisposableWriter", true);
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
            (Input::Active(_), Output::Local(_)) => "StreamSink",
            (Input::Zipped(_), _) => "ZipPushFilter",
            (Input::Passive, Output::Passive) => "PassiveBuffer",
            (Input::Passive, Output::Active(_)) => "PushFilter",
            (Input::Passive, Output::Local(_)) => "AcceptorSink",
        };
        let out_passive = matches!(output, Output::Passive);
        // A program meets its coordinator at the buffer, so there is one.
        let program = matches!(input, Input::Program(_)) || matches!(output, Output::Program(_));
        let depth = match config.depth {
            0 if program => crate::stdio::BUFFER,
            depth => depth,
        };
        // Windowing needs a single destination, and a writer that waits for
        // its write to be acknowledged waits for that one alone.
        let in_passive = matches!(input, Input::Passive | Input::Zipped(_));
        let window = match &output {
            Output::Active(wiring) if wiring.fan_out() > 1 => 1,
            _ if in_passive && depth == 0 => 1,
            _ => config.window.max(1),
        };
        let mut names = Vec::new();
        if out_passive {
            names.push(OUTPUT_NAME);
            names.extend(transform.iter().flat_map(|t| t.secondary_channels()));
        }
        Stage {
            name,
            in_passive,
            out_passive,
            input: InFace {
                face: input,
                transform,
                flushed: false,
                pulling: Pull::default(),
                unpaired: VecDeque::new(),
                paired: 0,
            },
            output: OutFace {
                face: output,
                cache: RouteCache::new(),
                window,
                in_flight: VecDeque::new(),
                ended: false,
            },
            batch: config.batch.max(1),
            depth,
            readers: names.iter().map(|_| VecDeque::new()).collect(),
            meet: Meet::Own(Buffer {
                queues: names.iter().map(|_| VecDeque::new()).collect(),
                table: ChannelTable::new(config.policy, names),
                ..Buffer::default()
            }),
            process: Process::default(),
            writers: VecDeque::new(),
            acks: VecDeque::new(),
            kept: None,
            disposable: false,
            closing: None,
            ended: None,
        }
    }

    /// A fresh retained stage ([`crate::recovery`]) running `transform`
    /// (`None`: the identity), which the registry rebuilds by `name`, between
    /// `input` and `output`, `batch` records a move: an active face's peer is
    /// its one port, and a local supply is loaded whole, its input closed —
    /// the checkpoint holds it. It stays
    /// what recovery can prove correct: one primary port per active face,
    /// one channel, a fixed batch, one write in flight, and no buffer but
    /// what it retains.
    pub(crate) fn retained(
        mut input: Input,
        name: &str,
        transform: Option<Box<dyn Transform>>,
        output: Output,
        batch: usize,
    ) -> Stage {
        let mut buf = VecDeque::new();
        let upstream = match &mut input {
            Input::Active(puller) => Some(puller.port(0).uid),
            Input::Local(supply) => loop {
                let pulled = supply.pull(usize::MAX);
                buf.extend(pulled.items);
                if pulled.end {
                    break None;
                }
            },
            _ => None,
        };
        let kept = Kept {
            transform: name.to_owned(),
            upstream,
            local: matches!(input, Input::Local(_)),
            downstream: match &output {
                Output::Active(wiring) => wiring.first(),
                _ => None,
            },
            batch: batch.max(1),
            ..Kept::default()
        };
        let ended = kept.local;
        let mut stage = Stage::assemble(input, transform, output, StageConfig::batch(batch));
        stage.input.flushed = ended;
        stage.meet = Meet::Own(Buffer {
            table: ChannelTable::single_output(),
            queues: vec![buf],
            ended,
            ..Buffer::default()
        });
        stage.readers = vec![VecDeque::new()];
        (stage.name, stage.kept) = (recovery::STAGE_TYPE, Some(Box::new(kept)));
        stage
    }

    /// Checkpoint a retained stage, if anything changed since the last one.
    fn save(&mut self, host: &impl Host) -> Result<()> {
        let Some(kept) = &mut self.kept else {
            return Ok(());
        };
        let input = &self.input;
        self.meet.with(|buffer| kept.save(host, input, buffer))
    }

    /// Whether its handlers take its steps: at depth 0, a stage with one
    /// passive face parks the callers of that face, and moves on the spot
    /// what they ask for (module docs).
    fn on_demand(&self) -> bool {
        self.depth == 0 && self.in_passive != self.out_passive
    }

    /// A pump over a local supply waits to be told to `Start`; every other
    /// process starts with its stage — and so does a retained stage's, which
    /// has to start again with every reactivation, unasked.
    fn awaits_start(&self) -> bool {
        matches!(self.input.face, Input::Local(_)) && !self.out_passive && self.kept.is_none()
    }

    /// Start the stage's process: `start` is the deferred reply to `Start`,
    /// answered when the stream has been delivered whole. It runs ahead of
    /// its callers given a buffer between the faces, no passive face to
    /// drive it, or as a zipped pipe, which answers its writers as it takes
    /// them in and pairs their records later; two passive faces alone have
    /// nothing to step.
    fn start(&mut self, host: &impl Host, start: Option<ReplyHandle>) {
        let zipped = matches!(self.input.face, Input::Zipped(_));
        let faces = !(self.in_passive && self.out_passive) || zipped;
        let started = faces && !self.on_demand();
        let ambient = eden_core::span::current();
        self.process = Process {
            started,
            start,
            ambient,
            ..Process::default()
        };
        if started {
            self.post(host);
        }
    }

    /// Post the process a step, unless the next is on its way already or it
    /// is through.
    fn post(&mut self, host: &impl Host) {
        let p = &mut self.process;
        if !p.done && !std::mem::replace(&mut p.next, true) {
            host.nudge();
        }
    }

    /// A step on the spot, under the invocation's own span — which the steps
    /// its replies post go on under.
    fn step_here(&mut self, host: &impl Host) {
        self.process.ambient = eden_core::span::current();
        self.step(host);
    }

    /// One step of the process (module docs): chunks while every call
    /// settles at once, up to `CHUNKS_A_STEP`, then the next step posted —
    /// unless a reply is out, which posts it, or there is nothing to do.
    fn step(&mut self, host: &impl Host) {
        if self.process.done {
            return;
        }
        for _ in 0..CHUNKS_A_STEP {
            match self.advance(host) {
                Ok(Flow::Moved) => {}
                Ok(Flow::Stop) => {
                    // A reply that is out posts the next step as it settles.
                    let out =
                        !self.input.pulling.out.is_empty() || !self.output.in_flight.is_empty();
                    self.process.next = out;
                    return;
                }
                // Retries exhausted under heavy fault load: a retained stage
                // carries on from the same positions in its next step rather
                // than strand the stream (a write that may or may not have
                // landed is re-sent with the same sequence; the receiver
                // deduplicates).
                Err(e) if self.kept.is_some() && e.is_retryable() => break,
                // A refusal the writers taken in wait for is theirs to hear,
                // and the stage goes on to the next write.
                Err(e) if !self.acks.is_empty() => self.answer(Err(e)),
                // A refusal no retry mends ends it.
                Err(e) => return self.finish(host, Err(e)),
            }
        }
        self.post(host);
    }

    /// One chunk of a step: the acknowledgements due come in first; then a
    /// chunk from the input face, or from the buffer where a handler has
    /// taken a write in; and it goes to the output face, or into the buffer
    /// for a handler to serve.
    fn advance(&mut self, host: &impl Host) -> Result<Flow> {
        let to_face = !self.out_passive;
        if to_face {
            let acknowledged = match self.kept.as_deref_mut() {
                Some(kept) => {
                    let (input, output) = (&self.input, &mut self.output);
                    self.meet
                        .with(|b| push(host, input, output, b, kept, false))?
                }
                None => match self.output.reap(host) {
                    Some(acknowledged) => acknowledged.map(|()| Flow::Moved)?,
                    None => Flow::Stop,
                },
            };
            if let Flow::Stop = acknowledged {
                return Ok(Flow::Stop);
            }
            // The write in hand is delivered: it no longer counts against the
            // depth, and once its writers have heard so, a parked writer may
            // be admitted.
            let handed = self.in_passive && self.meet.with(|b| std::mem::take(&mut b.delivering));
            if !self.acks.is_empty() && self.delivered() {
                self.answer(Ok(Value::Unit));
            }
            if handed {
                self.settle(host);
            }
            // A retained stage is through once its end is acknowledged, not
            // once it is sent: an end whose `Write` failed goes again.
            if self.kept.as_ref().map_or(self.output.ended, |k| k.out_end) {
                self.finish(host, Ok(()));
                return Ok(Flow::Stop);
            }
        }
        let (occupancy, ended) = self.meet.with(|b| (b.occupancy(), b.ended));
        let kept = self.kept.as_deref_mut();
        let owed = |k: &Kept| k.dirty || !k.out_end && (occupancy > 0 || ended);
        let chunk = if to_face && kept.as_deref().is_some_and(owed) {
            // What a write, or a failed delivery, left in the buffer goes out
            // (its end included) and what the stage has taken is saved before
            // more comes in: the next pull's position would acknowledge
            // records that only memory holds.
            Chunk::default()
        } else if self.in_passive {
            let taken = match self.input.face {
                Input::Zipped(_) => self.input.zip(host),
                _ => self.meet.with(Buffer::take_write),
            };
            match taken {
                Some(chunk) => chunk,
                None => return Ok(Flow::Stop),
            }
        } else if to_face {
            match self.input.produce(host, self.batch, kept) {
                Some(chunk) => chunk?,
                None => return Ok(Flow::Stop),
            }
        } else {
            // At depth 0, what the first parked reader wants and no more:
            // "no computation need be done until the result is requested"
            // (§4). Beyond it, the depth, and at least a batch: pre-pulling
            // less would starve the whole batches a reader is served. (A
            // pull that is out was asked for when there was room.)
            let want = match self.depth {
                0 => self.readers[0].front().map_or(0, |&(max, _)| max),
                depth => depth.max(self.batch),
            };
            let room = want.saturating_sub(occupancy);
            if room == 0 && self.input.pulling.out.is_empty() {
                return Ok(Flow::Stop);
            }
            if self.input.flushed {
                if self.depth > 0 {
                    self.finish(host, Ok(()));
                }
                return Ok(Flow::Stop);
            }
            // A peer is asked for a batch; a local supply yields exactly
            // what is asked for.
            let ask = match (self.depth, &self.input.face) {
                (0, Input::Local(_)) => room,
                (0, _) => self.batch,
                _ => self.batch.min(room),
            };
            let volatile = kept.is_none();
            match self.input.produce(host, ask, kept) {
                // A volatile stage's upstream failure ends the stream here:
                // its reader sees a short one (the error surfaced in metrics).
                Some(Err(_)) if volatile => self.input.absorb(Vec::new(), true, None),
                // A retained stage's fails the step; the next asks again.
                Some(chunk) => chunk?,
                None => return Ok(Flow::Stop),
            }
        };
        if let (true, None) = (to_face, &self.kept) {
            let end = chunk.end;
            let delivered = self.output.consume(host, chunk, None);
            if end && self.disposable {
                self.ended = Some(delivered.clone().map(|()| Value::Unit));
            }
            delivered?;
            return Ok(Flow::Moved);
        }
        let (input, kept) = (&self.input, self.kept.as_deref_mut());
        let output = Some(&mut self.output).filter(|_| to_face);
        let flow = self
            .meet
            .with(|b| retain(host, input, output, b, kept, chunk))?;
        if !to_face {
            self.settle(host);
        }
        Ok(flow)
    }

    /// Answer the writers a rendezvous has taken in.
    fn answer(&mut self, outcome: Result<Value>) {
        self.acks
            .drain(..)
            .for_each(|reply| reply.reply(outcome.clone()));
    }

    /// Whether everything the stage has taken in has been delivered, and
    /// acknowledged — and, retained, saved.
    fn delivered(&mut self) -> bool {
        let idle = self.input.unpaired.is_empty() && self.output.in_flight.is_empty();
        let kept = self.kept.as_deref();
        idle && self.meet.with(|b| match kept {
            None => b.writes.is_empty() && !b.delivering,
            Some(kept) => {
                let pushed = b.queues[0].is_empty() && (!b.ended || kept.out_end);
                pushed && kept.sent.is_none() && !kept.dirty
            }
        })
    }

    /// The process is through: with the stream delivered whole, or failed.
    /// Whoever is parked at the buffer must not wait for what will not come,
    /// a local output hears of a failure, and `Start` is answered.
    fn finish(&mut self, host: &impl Host, result: Result<()>) {
        self.process.done = true;
        self.input.pulling.out.clear();
        self.output.in_flight.clear();
        if let Err(e) = &result {
            self.answer(Err(e.clone()));
            let readers = self.readers.iter_mut().flat_map(|q| q.drain(..));
            readers.for_each(|(_, reply)| reply.reply(Err(e.clone())));
            if let Output::Local(sink) = &mut self.output.face {
                sink.fail(e.clone());
            }
        }
        if result.is_err() || self.disposable {
            self.meet.with(|b| b.closed = true);
            self.settle(host);
        }
        if let Some(start) = self.process.start.take() {
            start.reply(result.map(|()| Value::Unit));
        }
    }

    /// A program is the stage's process, on a thread of its own: what it
    /// writes goes into the buffer as a read-ahead step's chunks do, what it
    /// reads comes out of it as a push-ahead step's writes do. The
    /// coordinator has no step to take.
    fn spawn_program(&mut self, ctx: &EjectContext) {
        self.process.done = true;
        let meet = self.meet.share();
        // Room for whatever a reader may be waiting for whole.
        let room = self.depth.max(self.batch);
        let input = std::mem::replace(&mut self.input.face, Input::Passive);
        let output = std::mem::replace(&mut self.output.face, Output::Passive);
        ctx.spawn_process("program", move |pctx| {
            let delivered = match (input, output) {
                (Input::Program(program), _) => {
                    program.run(TransputWriter::new(Arc::clone(&meet), pctx.clone(), room));
                    true
                }
                (_, Output::Program(program)) => {
                    program.run(TransputReader::new(Arc::clone(&meet), pctx.clone()));
                    // One that returns before the end of its stream leaves
                    // nobody to take the writes still to come.
                    let buffer = meet.queue.lock();
                    buffer.ended && buffer.writes.is_empty()
                }
                _ => unreachable!("a program stage has a program face"),
            };
            if !delivered {
                meet.queue.lock().closed = true;
                let _ = pctx.post_internal(Value::Unit);
            }
        });
    }

    /// The passive input face: a `Write`.
    fn accept(&mut self, host: &impl Host, w: WriteRequest, reply: ReplyHandle) {
        // A writer that finds the buffer full (or finds others already
        // waiting) is parked: passive input under backpressure. The reply is
        // deferred; the coordinator never blocks. What a retained buffer
        // holds is for its reader's acknowledgements to bound, not a
        // capacity: it parks nobody.
        let parked = if self.kept.is_none() && (!self.writers.is_empty() || self.full()) {
            self.writers.push_back((w, reply));
            true
        } else {
            self.admit(host, w, reply)
        };
        if parked {
            // A rendezvous delivers the write now, as far as every call
            // settles at once.
            if self.on_demand() {
                self.step_here(host);
            }
            let waiting = self.writers.back().map(|(_, reply)| reply);
            if let Some(reply) = waiting.or(self.acks.back()) {
                reply.mark_deferred();
            }
        }
        self.settle(host);
    }

    /// The buffer has no room for another write (a closed one takes the
    /// write and refuses it).
    fn full(&mut self) -> bool {
        let depth = self.depth.max(1);
        let unpaired = self.input.unpaired.len();
        self.meet
            .with(|b| !b.closed && b.occupancy() + unpaired >= depth)
    }

    /// Take a `Write` in: through the transform — a zipped input's once its
    /// step has paired it — and into the buffer. A rendezvous's writer waits
    /// (`acks`) until the step has delivered what the write came to; any
    /// other is answered now. A retained stage takes only what lies beyond
    /// the position it has accepted, and acknowledges what it has kept,
    /// passed on and checkpointed, so that every crash window resolves to a
    /// re-send the sequence arithmetic deduplicates. Whether the writer
    /// waits.
    fn admit(&mut self, host: &impl Host, mut w: WriteRequest, reply: ReplyHandle) -> bool {
        let waits = self.on_demand();
        let mut kept = self.kept.as_deref_mut();
        if let Some(Err(gap)) = kept.as_ref().map(|kept| kept.sequence(&mut w)) {
            reply.reply(Err(gap));
            return false;
        }
        // A re-sent end of stream is a no-op; a record beyond the closed
        // stream's end is a sender's bug.
        if self.input.flushed && !w.items.is_empty() {
            let refused = EdenError::Application("write after end of stream".into());
            reply.reply(Err(refused));
            return false;
        }
        if self.input.flushed && self.process.done {
            reply.reply(Ok(Value::Unit));
            return false;
        }
        let taken = match self.input.face {
            Input::Zipped(_) => {
                self.input.unpaired.push_back(w);
                Ok(Flow::Moved)
            }
            _ => {
                let chunk = self.input.absorb(w.items, w.end, kept.as_deref_mut());
                // A rendezvous's step pushes what it keeps, then saves it.
                let (input, kept) = (&self.input, kept.filter(|_| !waits));
                self.meet
                    .with(|buffer| retain(host, input, None, buffer, kept, chunk))
            }
        };
        match taken {
            Ok(_) if waits => {
                self.acks.push_back(reply);
                return true;
            }
            taken => reply.reply(taken.map(|_| Value::Unit)),
        }
        false
    }

    /// The passive output face: a `Transfer`. A retained stage's buffer
    /// forgets what the request's position acknowledges, not what it serves
    /// — in memory only; what is checkpointed is what its steps pulled.
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
        // Readers are served in the order they came, and one that finds no
        // data stays parked — the "partial vacuum" of §4 — pulled for at once
        // at depth 0. Secondary channels fill only as a by-product of primary
        // demand: §4's laziness means reports trail the main stream.
        self.readers[idx].push_back((req.max, reply));
        self.settle(host);
        if idx == 0 && self.on_demand() {
            self.step_here(host);
        }
        if let Some((_, reply)) = self.readers[idx].back() {
            reply.mark_deferred();
        }
    }

    fn read(&mut self, idx: usize, max: usize) -> Option<Batch> {
        // An active input's primary reader is served what it asked for, or
        // the end: at depth 0 its step pulls until then; ahead of it, whole
        // batches (capped by the stage's own) — answering a 64-record ask
        // with the 4 records that happen to be buffered would turn one
        // invocation into many.
        let fill = match (idx, self.in_passive, self.depth) {
            (0, false, 0) => max,
            (0, false, _) => max.min(self.batch),
            _ => 1,
        };
        // A retained output keeps what it serves until a later position
        // acknowledges it, so a reader it parks and a crash abandons asks
        // again and is served the same records.
        let keep = self.kept.is_some();
        self.meet.with(|buffer| buffer.read(idx, max, fill, keep))
    }

    /// Answer a parked `Close` once the stream has ended here, and
    /// deactivate a disposable stage whose stream is done: read out to its
    /// end, delivered by its process, or — an acceptor's — ended into its
    /// output and closed. A retained stage has ended once its end is
    /// durable, and stays.
    fn dispose(&mut self, ctx: &EjectContext) {
        let ended = match &self.kept {
            Some(kept) => (self.input.flushed && !kept.dirty).then_some(Ok(Value::Unit)),
            None => self.ended.clone(),
        };
        let done = |b: &mut Buffer| b.closed || (b.ended && b.occupancy() == 0);
        if let (Some(_), Some(ended)) = (&self.closing, ended) {
            self.closing.take().expect("matched").reply(ended);
        } else if self.closing.is_some() || self.in_passive || !self.meet.with(done) {
            return;
        }
        if self.disposable {
            ctx.request_deactivate();
        }
    }

    /// Move parked writes into the buffer while space allows and answer
    /// parked reads while data (or end) allows, then let a program look.
    fn settle(&mut self, host: &impl Host) {
        let mut moved = true;
        while std::mem::take(&mut moved) {
            while !self.writers.is_empty() && !self.full() {
                let (w, reply) = self.writers.pop_front().expect("non-empty checked");
                self.admit(host, w, reply);
                moved = true;
            }
            // Checkpoint before reply: no reader is served more than the
            // stable state holds.
            if self.save(host).is_err() {
                break;
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

    // Whatever the faces and the depth, a handler answers or parks its
    // caller, and a call it makes is its own caller's: at depth 0 the step
    // it takes runs the active face for the caller it has parked, and stops
    // once that caller, the last it parked, has its reply. Anything else it
    // leaves to a posted step — pairing a zipped pipe's records included —
    // and after a reply touches only its own buffer.
    fn replies_last(&self) -> bool {
        true
    }

    /// A retained stage whose process has not delivered its stream is
    /// invoked by nobody: the kernel reactivates it should it crash.
    fn drives_itself(&self) -> bool {
        self.kept.is_some() && self.process.started && !self.process.done
    }

    fn redo(&mut self, entry: Value) -> Result<()> {
        let Some(kept) = &mut self.kept else {
            return Err(EdenError::Application(
                "a volatile stage keeps no journal".into(),
            ));
        };
        let input = &mut self.input;
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
        if matches!(self.input.face, Input::Program(_))
            || matches!(self.output.face, Output::Program(_))
        {
            self.spawn_program(ctx);
        } else if !self.awaits_start() {
            self.start(ctx, None);
        }
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        // A face answers only the operations of its mode.
        match inv.op.as_str() {
            // A passive input takes writes on its one channel only.
            ops::WRITE if self.in_passive => match WriteRequest::from_value(inv.arg) {
                Ok(w) if w.channel != ChannelId::output() => reply.reply(Err(unknown(w.channel))),
                Ok(w) => self.accept(ctx, w, reply),
                Err(e) => reply.reply(Err(e)),
            },
            ops::TRANSFER if self.out_passive => match TransferRequest::from_value(&inv.arg) {
                Ok(req) => self.serve(ctx, req, reply),
                Err(e) => reply.reply(Err(e)),
            },
            // An acceptor — disposable, or a retained passive input — parks
            // one `Close` until its stream has ended there, and then says how
            // (`dispose`): how a run learns of its end, an event and no poll.
            // A crash abandons a retained one's to its asker's retry.
            ops::CLOSE if self.in_passive && (self.disposable || self.kept.is_some()) => {
                match self.closing {
                    Some(_) => reply.reply(Err(EdenError::Application("already closing".into()))),
                    None => {
                        reply.mark_deferred();
                        self.closing = Some(reply);
                    }
                }
            }
            ops::CLOSE if self.disposable => {
                reply.reply(Ok(Value::Unit));
                ctx.request_deactivate();
            }
            ops::GET_CHANNEL if self.out_passive => reply.reply(
                GetChannelRequest::from_value(&inv.arg)
                    .and_then(|req| self.meet.with(|buffer| buffer.table.id_of(&req.name)))
                    .map(Value::from),
            ),
            // All a retained output holds of the request's channel from its
            // position on, and none of it forgotten: how a recoverable
            // pipeline's acceptor is read. A channel the stage does not have
            // is refused as `Transfer` refuses it.
            READ_ALL if self.out_passive && self.kept.is_some() => {
                let req = match &inv.arg {
                    Value::Unit => Ok(TransferRequest::primary(0)),
                    arg => TransferRequest::from_value(arg),
                };
                let base = self.kept.as_ref().map_or(0, |kept| kept.base);
                reply.reply(req.and_then(|req| {
                    let skip = req.pos.unwrap_or(0).saturating_sub(base) as usize;
                    self.meet.with(|buffer| {
                        let items = buffer.queues[buffer.table.index_of(req.channel)?].iter();
                        let items = items.skip(skip).cloned().collect();
                        Ok(Batch::to_value(Batch {
                            items,
                            end: buffer.ended,
                        }))
                    })
                }));
            }
            START if self.awaits_start() && self.process.started => {
                reply.reply(Err(EdenError::Application("already started".into())));
            }
            START if self.awaits_start() => {
                reply.mark_deferred();
                self.start(ctx, Some(reply));
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
        // A reader may have made room, or a writer brought a chunk.
        if self.process.started {
            self.post(ctx);
        }
        if self.disposable || self.closing.is_some() {
            self.dispose(ctx);
        }
    }

    fn internal(&mut self, ctx: &EjectContext, _event: Value) {
        // A step was posted, a reply a step left out is in, or a program has
        // put or taken something, or is done.
        self.process.next = false;
        self.settle(ctx);
        let ambient = self.process.ambient;
        let _span = ambient.map(|ambient| eden_core::span::enter(Some(ambient)));
        self.step(ctx);
        if self.disposable || self.closing.is_some() {
            self.dispose(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::recovery::TransformRegistry;
    use crate::source::{FnSource, VecSource};
    use crate::transform::tests::filter_fn;
    use crate::transform::{map_fn, Identity};
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
            Output::local(collector.clone()),
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
                Output::local(collector.clone()),
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
                Output::local(collector.clone()),
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
                Output::local(collector.clone()),
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
                Output::local(collector.clone()),
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
                Output::local(collector.clone()),
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
                Input::Zipped(InputPuller::new(
                    vec![InputPort::primary(secondary)],
                    FanInMode::Concatenate,
                )),
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
                Output::local(collector.clone()),
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
                Output::local(collector.clone()),
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
        // Answering a `Transfer` makes room in a capacity-1 pipe, and the
        // parked `Write` admitted into it must have its records paired with
        // the secondary port's. The handler leaves that read to a posted
        // step, so the stage declares `replies_last` (a debug build would
        // crash it at a read after its reply), and still delivers the
        // zipped stream.
        let kernel = Kernel::new();
        let secondary = int_source(&kernel, 20);
        let pipe = Stage::new(
            Input::Zipped(InputPuller::new(
                vec![InputPort::primary(secondary)],
                FanInMode::Concatenate,
            )),
            Output::Passive,
            StageConfig {
                depth: 1,
                ..Default::default()
            },
        );
        assert!(pipe.replies_last());
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
                Output::local(collector.clone()),
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
    /// acknowledges every push (or answers it with `refuse`) — at once, but
    /// for the next one `hold` is set for, whose answer waits in `held` —
    /// keeps the bytes the stable store would hold
    /// — the last checkpoint, then the entries journaled since — and logs it
    /// all: a durable write of either form is a `Checkpoint` event, and
    /// `carried` says which form each took and the records it was handed.
    #[derive(Default)]
    struct Fake {
        upstream: Vec<Value>,
        refuse: Option<EdenError>,
        hold: std::cell::Cell<bool>,
        held: RefCell<Option<(ReplyHandle, Result<Value>)>>,
        log: RefCell<Vec<Event>>,
        stored: RefCell<Vec<Vec<u8>>>,
        carried: RefCell<Vec<(Form, Vec<Value>)>>,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Form {
        Whole,
        Entry,
    }

    impl Caller for Fake {
        fn uid(&self) -> Uid {
            unreachable!("no sink ends here")
        }
        fn invoke(&self, _: Uid, _: &'static str, _: Value) -> Result<Value> {
            unreachable!("no sink ends here")
        }
    }

    impl Host for Fake {
        fn call(
            &self,
            _: &mut RouteCache,
            retained: bool,
            _: Uid,
            op: &'static str,
            arg: Value,
        ) -> PendingReply {
            assert!(retained, "a retained face's calls retry");
            let answer = self.answer(op, arg);
            if op != ops::WRITE || !self.hold.take() {
                return PendingReply::ready(answer);
            }
            let (reply, pending) = reply_pair(Uid::fresh(), Metrics::new());
            *self.held.borrow_mut() = Some((reply, answer));
            pending
        }

        fn poll(&self, pending: &mut PendingReply) -> Option<Result<Value>> {
            let polled = std::mem::replace(pending, PendingReply::ready(Err(EdenError::Timeout)));
            polled.try_wait().map_err(|still| *pending = still).ok()
        }

        fn nudge(&self) {}

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
        fn answer(&self, op: &'static str, arg: Value) -> Result<Value> {
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
            self.refuse.clone().map_or(Ok(Value::Unit), Err)
        }

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
            let mut stage = Kept::reactivate(states.next().unwrap(), &registry()).unwrap();
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
        let input = if active_in {
            Input::pull(Uid::fresh())
        } else {
            Input::Passive
        };
        let output = if active_out {
            Output::push(Uid::fresh())
        } else {
            Output::Passive
        };
        let built = registry().build(transform, &Value::Unit).unwrap();
        Stage::retained(input, transform, built, output, 3)
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
        let (kept, input) = (s.kept.as_ref().unwrap(), &s.input);
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
            assert!(s.input.flushed, "{case}");
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
        let supply = Input::Local(Box::new(VecSource::new(ints(0..8))));
        let source = Stage::retained(supply, "", None, Output::Passive, 3);
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

    /// One chunk of a pump's process, as a step takes it.
    fn pump(s: &mut Stage, host: &Fake) {
        assert!(matches!(s.advance(host), Ok(Flow::Moved)));
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
        for ((active_in, active_out), transform) in faces
            .into_iter()
            .zip(["sum", "double"])
            .chain(faces.into_iter().zip(["double", "sum"]))
        {
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
                        drop(
                            host.write(&mut s, write(4 * step, at..at + 4, false))
                                .unwrap(),
                        );
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
                let input = &mut back.input;
                let mut more = input.absorb(vec![Value::Int(100)], false, Some(revived));
                assert_eq!(more.out.take_primary(), [Value::Int(next)], "{case}");
            }
            // Only a stage that holds what it is not writing has anything to
            // journal: here, the two that nobody takes from.
            let forms: Vec<Form> = host
                .carried
                .borrow()
                .iter()
                .map(|(form, _)| *form)
                .collect();
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
        let supply = Input::Local(Box::new(VecSource::new(ints(0..48))));
        let source = Stage::retained(supply, "", None, Output::push(Uid::fresh()), 3);
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
    fn a_retained_step_carries_on_past_a_fault_and_ends_on_a_refusal() {
        // A pushing source whose every `Write` fails, its retries spent: a
        // fault a retry mends is sent again by the next step; a refusal no
        // retry mends ends the process, which sends nothing more.
        let gap = EdenError::BadParameter("write at 3 leaves a gap after 0".into());
        for (refusal, again) in [
            (EdenError::FaultInjected("drop".into()), true),
            (gap, false),
        ] {
            let host = Fake {
                refuse: Some(refusal.clone()),
                ..Fake::default()
            };
            let supply = Input::Local(Box::new(VecSource::new(ints(0..6))));
            let mut s = born(
                Stage::retained(supply, "", None, Output::push(Uid::fresh()), 3),
                &host,
            );
            s.start(&host, None);
            for steps in 1..=3 {
                s.process.next = false;
                s.step(&host);
                let sent = if again { steps } else { 1 };
                assert_eq!(host.pushes().len(), sent, "{refusal}: step {steps}");
                assert_eq!(s.process.done, !again, "{refusal}: step {steps}");
                assert_eq!(s.process.next, again, "{refusal}: step {steps}");
            }
            assert_eq!(s.kept.as_ref().unwrap().base, 0, "{refusal}");
        }
    }

    #[test]
    fn a_retained_push_not_answered_at_once_ends_its_step_and_the_next_picks_it_up() {
        let host = Fake {
            hold: true.into(),
            ..Fake::default()
        };
        let supply = Input::Local(Box::new(VecSource::new(ints(0..6))));
        let source = Stage::retained(supply, "", None, Output::push(Uid::fresh()), 3);
        let mut s = born(source, &host);
        s.start(&host, None);
        let forgotten_at = |base| {
            let log = host.log.borrow();
            let at = |e: &&Event| matches!(e, Event::Checkpoint { base: b, .. } if *b == base);
            log.iter().filter(at).count()
        };
        // The step returns with the push out, and its reply is what posts
        // the next; until it is in, a step sends nothing more, and nothing
        // is forgotten or written beside what birth wrote.
        for _ in 0..2 {
            s.process.next = false;
            s.step(&host);
            assert_eq!((host.pushes().len(), host.checkpoints()), (1, 1));
            assert_eq!(standing(&mut s).1, 0);
            assert!(s.process.next && !s.process.done);
        }
        let (reply, answer) = host.held.take().expect("the push is out");
        reply.reply(answer);
        // Once it is in, the next step forgets the batch and saves that
        // once, then pushes the rest of the stream, and is through.
        s.process.next = false;
        s.step(&host);
        assert_eq!(forgotten_at(3), 1);
        let pushed: Vec<_> = host
            .pushes()
            .into_iter()
            .map(|(seq, _, end)| (seq, end))
            .collect();
        assert_eq!(pushed, [(0, false), (3, true)]);
        assert_eq!(standing(&mut s).1, 6);
        assert!(s.process.done);
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
            assert_eq!(
                standing(&mut host.reactivated()),
                standing(&mut s),
                "write {k}"
            );
            assert_eq!(standing(&mut s).1, pos);
        }
        // Six records journaled or forgotten a round against thirty held:
        // whole every fifth write, an entry the other four.
        let carried = host.carried.borrow();
        let folds = carried[11..]
            .iter()
            .filter(|(form, _)| *form == Form::Whole);
        assert_eq!(folds.count(), 6);
    }

    #[test]
    fn a_reactivated_stage_writes_nothing_until_it_takes_something() {
        let kernel = Kernel::new();
        recovery::install_recovery(&kernel, &registry());
        let acceptor = kernel.spawn(Box::new(retained("", false, false))).unwrap();
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
        assert_eq!(
            woken.checkpoints, 0,
            "it is its stable state: nothing to write"
        );
        send(100);
        let after = kernel.metrics().snapshot().since(&before);
        assert_eq!((after.checkpoints, after.journal_entries), (1, 1));
        let all = kernel.invoke(acceptor, READ_ALL, Value::Unit).wait();
        assert_eq!(Batch::from_value(all.unwrap()).unwrap().items, ints(0..110));
        kernel.shutdown();
    }

    #[test]
    fn read_all_reads_from_its_position_and_refuses_a_malformed_one() {
        let kernel = Kernel::new();
        recovery::install_recovery(&kernel, &registry());
        let acceptor = kernel.spawn(Box::new(retained("", false, false))).unwrap();
        let w = write(0, 0..10, false).to_value();
        kernel.invoke(acceptor, ops::WRITE, w).wait().unwrap();
        let read_all = |arg| kernel.invoke(acceptor, READ_ALL, arg).wait();
        let items = |arg| Batch::from_value(read_all(arg).unwrap()).unwrap().items;
        assert_eq!(items(Value::Unit), ints(0..10));
        assert_eq!(items(TransferRequest::primary(4).to_value()), ints(0..10));
        let from_seven = TransferRequest::primary(4).at(7).to_value();
        assert_eq!(items(from_seven), ints(7..10));
        let negative = Value::record([
            ("channel", Value::Int(0)),
            ("max", Value::Int(4)),
            ("pos", Value::Int(-1)),
        ]);
        for bad in [negative, Value::str("from the start"), Value::Int(0)] {
            let refused = matches!(read_all(bad.clone()), Err(EdenError::BadParameter(_)));
            assert!(refused, "{bad:?}");
        }
        // A channel the acceptor does not have: a number, then a capability.
        let on = |channel| {
            TransferRequest {
                channel,
                ..TransferRequest::primary(4)
            }
            .to_value()
        };
        let foreign = read_all(on(ChannelId::Number(1)));
        let refused = matches!(foreign, Err(EdenError::NoSuchChannel(_)));
        assert!(refused, "{foreign:?}");
        let forged = read_all(on(ChannelId::Cap(Uid::fresh())));
        let refused = matches!(forged, Err(EdenError::NotAuthorized(_)));
        assert!(refused, "{forged:?}");
        kernel.shutdown();
    }

    #[test]
    fn an_idle_retained_reader_costs_nothing() {
        // A pump over an empty, open pipe: its read parks there, and until a
        // writer comes nothing moves — no read again, no post to itself.
        let kernel = Kernel::new();
        recovery::install_recovery(&kernel, &registry());
        let pipe = kernel.spawn(Box::new(retained("", false, false))).unwrap();
        let acceptor = kernel.spawn(Box::new(retained("", false, false))).unwrap();
        let pump = Stage::retained(Input::pull(pipe), "", None, Output::push(acceptor), 3);
        kernel.spawn(Box::new(pump)).unwrap();
        let asked = std::time::Instant::now() + Duration::from_secs(10);
        while kernel.metrics().snapshot().invocations == 0 {
            assert!(std::time::Instant::now() < asked, "the pump never read");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        let before = kernel.metrics().snapshot();
        std::thread::sleep(Duration::from_millis(100));
        let idle = kernel.metrics().snapshot().since(&before);
        assert_eq!(
            (idle.invocations, idle.internal_messages),
            (0, 0),
            "{idle:?}"
        );
        kernel.shutdown();
    }

    #[test]
    fn a_transfer_at_an_empty_open_retained_output_parks_until_a_write() {
        let kernel = Kernel::new();
        recovery::install_recovery(&kernel, &registry());
        let pipe = kernel.spawn(Box::new(retained("", false, false))).unwrap();
        let read = |pos: u64| {
            let req = TransferRequest::primary(8).at(pos).to_value();
            kernel.invoke_with(pipe, ops::TRANSFER, req, recovery::stream_opts())
        };
        let send = |w: WriteRequest| kernel.invoke(pipe, ops::WRITE, w.to_value()).wait();
        let batch = |reply: Result<Value>| Batch::from_value(reply.unwrap()).unwrap();
        let parked = read(0);
        std::thread::sleep(Duration::from_millis(20));
        let Err(parked) = parked.try_wait() else {
            panic!("an empty, open retained output answered at once");
        };
        send(write(0, 0..3, false)).unwrap();
        let first = batch(parked.wait_timeout(Duration::from_secs(10)));
        assert_eq!((first.items, first.end), (ints(0..3), false));

        // Crashed while a reader is parked at it: the reader's retry (its
        // wait drives it) reactivates the stage, which parks it again, and
        // the next write answers it with each record once.
        let parked = read(3);
        std::thread::sleep(Duration::from_millis(20));
        kernel.crash(pipe).unwrap();
        let writer = std::thread::spawn({
            let kernel = kernel.clone();
            move || {
                let woken = std::time::Instant::now() + Duration::from_secs(10);
                while kernel.metrics().snapshot().reactivations == 0 {
                    assert!(std::time::Instant::now() < woken, "no retry woke it");
                    std::thread::yield_now();
                }
                let w = write(3, 3..6, true).to_value();
                kernel.invoke(pipe, ops::WRITE, w).wait()
            }
        });
        let second = batch(parked.wait_timeout(Duration::from_secs(10)));
        writer.join().unwrap().unwrap();
        assert_eq!((second.items, second.end), (ints(3..6), true));
        let m = kernel.metrics().snapshot();
        assert_eq!((m.crashes, m.reactivations), (1, 1));
        kernel.shutdown();
    }

    // ---- local output: the pumping sink, the acceptor ----

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
                Output::local(collector.clone()),
                StageConfig::batch(4),
            )))
            .unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (0..20).map(Value::Int).collect::<Vec<_>>());
        kernel.shutdown();
    }

    // ---- the disposable writer: a file opened for output ----

    #[test]
    fn a_writer_pulls_its_source_into_its_sink_and_disappears() {
        let kernel = Kernel::new();
        let source = int_source(&kernel, 5);
        let collector = Collector::new();
        let writer = Stage::writer(Some(source), collector.clone());
        let writer = kernel.spawn(Box::new(writer)).unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (0..5).map(Value::Int).collect::<Vec<_>>());
        assert!(kernel.await_gone(&[writer], Duration::from_secs(10)));
        kernel.shutdown();
    }

    #[test]
    fn an_acceptor_writer_answers_close_once_its_stream_has_ended() {
        struct Refusing;
        impl PushSink for Refusing {
            fn push(&mut self, _items: Vec<Value>) {}
            fn end(&mut self, _: &dyn Caller) -> Result<()> {
                Err(EdenError::Application("disk full".into()))
            }
            fn fail(&mut self, _error: EdenError) {}
        }
        let kernel = Kernel::new();
        let write = |to: Uid, w: WriteRequest| kernel.invoke(to, ops::WRITE, w.to_value()).wait();
        let collector = Collector::new();
        let writer = kernel
            .spawn(Box::new(Stage::writer(None, collector.clone())))
            .unwrap();
        write(writer, WriteRequest::more(vec![Value::Int(1)])).unwrap();
        let closed = kernel.invoke(writer, ops::CLOSE, Value::Unit);
        // Handled in order: by the time this write is answered, so is the
        // `Close` ahead of it — parked, since the stream is still open.
        write(writer, WriteRequest::more(vec![Value::Int(2)])).unwrap();
        let closed = closed
            .try_wait()
            .expect_err("closed before its stream ended");
        write(writer, WriteRequest::last(vec![Value::Int(3)])).unwrap();
        assert_eq!(closed.wait(), Ok(Value::Unit));
        assert!(kernel.await_gone(&[writer], Duration::from_secs(10)));
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (1..4).map(Value::Int).collect::<Vec<_>>());
        // A sink whose end fails fails the last write, and the `Close`.
        let refusing = kernel
            .spawn(Box::new(Stage::writer(None, Refusing)))
            .unwrap();
        let closed = kernel.invoke(refusing, ops::CLOSE, Value::Unit);
        let full = Err(EdenError::Application("disk full".into()));
        assert_eq!(write(refusing, WriteRequest::last(Vec::new())), full);
        assert_eq!(closed.wait(), full);
        kernel.shutdown();
    }

    #[test]
    fn a_second_close_on_an_acceptor_is_refused_and_the_first_still_answers() {
        let kernel = Kernel::new();
        let collector = Collector::new();
        let writer = kernel
            .spawn(Box::new(Stage::writer(None, collector.clone())))
            .unwrap();
        let first = kernel.invoke(writer, ops::CLOSE, Value::Unit);
        let second = kernel.invoke(writer, ops::CLOSE, Value::Unit).wait();
        assert_eq!(
            second,
            Err(EdenError::Application("already closing".into()))
        );
        let end = WriteRequest::last(vec![Value::Int(1)]).to_value();
        kernel.invoke(writer, ops::WRITE, end).wait().unwrap();
        // Not `EjectCrashed`: the acceptor is alive and ends normally.
        assert_eq!(first.wait(), Ok(Value::Unit));
        assert_eq!(
            collector.wait_done(Duration::from_secs(10)).unwrap(),
            [Value::Int(1)]
        );
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
                Output::local(collector.clone()),
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
                Output::local(collector.clone()),
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
                Output::local(collector.clone()),
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
                Output::local(Collector::new()),
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
