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
//! | active | local | the sink that pumps a read-only pipeline (§4): a collector, or a file opened for output | `StreamSink` | — (the driver is that sink) |
//! | local | active | the source that pumps a write-only pipeline (§5) | `PushSource` | write-only source; starts unasked |
//! | passive | active | write-only filter | `PushFilter` | write-only `stage{i}` |
//! | passive | local | acceptor: "always ready to accept" writes (§5) | `AcceptorSink` | — (the acceptor is the pipe below) |
//! | passive | passive | the Unix pipe, Figure 1's passive buffer | `PassiveBuffer` | `buf{i}`; read by `ReadAll`, the acceptor |
//! | active | active | the Unix filter: transforms *and pumps* (§3) | `PumpFilter` | conventional `pump{i}` |
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
//!   concurrently" — and its dual for writers. The stage's process runs the
//!   active face and meets the handlers at the buffer: a read-ahead process
//!   fills it while fewer than `depth` records wait to be read; a push-ahead
//!   process drains it, and a writer that finds `depth` writes still
//!   undelivered is parked (its reply deferred), so no handler waits. A
//!   pipe's depth is its capacity.
//! * A stage with **no passive face** has nobody to drive it, so its process
//!   runs both faces whatever the depth: the sink's pump, the conventional
//!   filter, and the pushing source, which waits for `Start` and answers it
//!   when the last write has been acknowledged — `Start` is "run the
//!   pipeline".
//!
//! ## The process: steps on the coordinator
//!
//! A stage's process is no thread: its own coordinator runs it from
//! `internal`, a step at a time between the invocations it handles — up to
//! `CHUNKS_A_STEP` chunks while every call settles at once, then the next
//! step posted to its own mailbox. A reply that is not in is kept, and its
//! settle posts the step that picks up from there; meanwhile the stage costs
//! what a parked Eject costs. Only a **program** ([`crate::stdio`]) keeps a
//! thread, and shares the buffer as a [`Shared`] one. The posts are internal
//! events, metered as language-level IPC rather than as invocations — the
//! distinction the paper's cost argument rests on.
//!
//! ## Retention: what the stage has not been told to forget
//!
//! The faces speak positions: a `Write` may say where its first record
//! stands, a `Transfer` which record it wants first, and an absent position
//! means "next" — all a volatile stage ever says or hears. A retained stage
//! (`Stage::retained`) counts, and differs at two kinds of site only.
//! *When the buffer may forget:* not what it serves or sends but what the
//! position of a later `Transfer`, or the reply to a `Write`, acknowledges —
//! so it parks no reader and no writer, and holds everything between two
//! passive faces that nobody reads by position. *What an acknowledgement
//! waits for:* a durable write whenever the stage has taken or made something
//! (`retain`, `save`) — of what changed, or of the stage whole — and nothing
//! when a reader's position only lets it forget. It calls its peers as a
//! volatile stage does (`Host::call`), under a retry policy.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

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
use crate::source::{Caller, PullSource, PushSink, VecSource};
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
/// outcome — a handler waits for it, a passive face answering only once its
/// active face has; a step polls, and is posted once it is in; post the
/// stage its next step, now or after a pause; and write its passive
/// representation, whole or one entry more.
pub(crate) trait Host: Caller {
    fn call(
        &self,
        cache: &mut RouteCache,
        retained: bool,
        to: Uid,
        op: &'static str,
        arg: Value,
    ) -> PendingReply;
    fn poll(&self, pending: &mut PendingReply, wait: bool) -> Option<Result<Value>>;
    fn nudge(&self);
    fn nudge_after(&self, pause: Duration);
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
    fn poll(&self, pending: &mut PendingReply, wait: bool) -> Option<Result<Value>> {
        match wait {
            true => Some(
                std::mem::replace(pending, PendingReply::ready(Err(EdenError::Timeout))).wait(),
            ),
            false => self.poll_reply(pending),
        }
    }
    fn nudge(&self) {
        EjectContext::nudge(self)
    }
    fn nudge_after(&self, pause: Duration) {
        EjectContext::nudge_after(self, pause)
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
}

impl Pull {
    /// One step of `puller`'s input: up to `max` records, from `pos` if the
    /// face keeps count, and whether it ended — `None` while a reply is out.
    /// Its `Transfer`s go out together, one a port under `Zip`, and are taken
    /// in the order asked, so a step waits on one reply at a time.
    fn next(
        &mut self,
        puller: &mut InputPuller,
        host: &impl Host,
        max: usize,
        pos: Option<u64>,
        wait: bool,
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
            let batch = host.poll(front, wait)?.and_then(Batch::from_value);
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

    /// The passive face: take what a `Write` carries.
    fn accept(&mut self, host: &impl Host, mut w: WriteRequest, kept: Option<&mut Kept>) -> Chunk {
        if let Input::Zipped(secondary) = &mut self.face {
            for item in &mut w.items {
                let read = self.pulling.next(secondary, host, 1, None, true);
                let (read, _) = read
                    .expect("a wait comes back with the outcome")
                    .unwrap_or_else(|_| {
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
    /// `kept`'s position, where the stage keeps one. `None` while a reply
    /// it waits for is out.
    fn produce(
        &mut self,
        host: &impl Host,
        ask: usize,
        kept: Option<&mut Kept>,
        wait: bool,
    ) -> Option<Result<Chunk>> {
        let (items, end) = match &mut self.face {
            Input::Local(source) => {
                let pulled = source.pull(ask);
                eden_core::stream::note_emitted(pulled.items.len());
                (pulled.items, pulled.end)
            }
            Input::Active(puller) => {
                let pos = kept.as_ref().map(|kept| kept.consumed);
                match self.pulling.next(puller, host, ask, pos, wait)? {
                    Ok(pulled) => pulled,
                    Err(e) => return Some(Err(e)),
                }
            }
            Input::Passive | Input::Zipped(_) => unreachable!("a passive input is written to"),
            Input::Program(_) => unreachable!("a program is its own process"),
        };
        Some(Ok(self.absorb(items, end, kept)))
    }

    /// As [`produce`](Self::produce) for a volatile stage's reader to be
    /// served: an upstream failure ends the stream here, and the reader sees
    /// a short one (the error also surfaced in metrics).
    fn produce_or_end(&mut self, host: &impl Host, ask: usize, wait: bool) -> Option<Chunk> {
        let produced = self.produce(host, ask, None, wait)?;
        Some(produced.unwrap_or_else(|_| self.absorb(Vec::new(), true, None)))
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
    /// streams close. Every `Write` is a call whose reply joins `in_flight`;
    /// then [`reap`](Self::reap). A local output takes the chunk at once.
    fn consume(
        &mut self,
        host: &impl Host,
        mut chunk: Chunk,
        seq: Option<u64>,
        wait: bool,
    ) -> Option<Result<()>> {
        self.ended |= chunk.end;
        let wiring = match &mut self.face {
            Output::Active(wiring) => &*wiring,
            Output::Local(sink) => {
                let items = chunk.out.take_primary();
                if !items.is_empty() {
                    sink.push(items);
                }
                return Some(if chunk.end { sink.end(host) } else { Ok(()) });
            }
            Output::Passive => unreachable!("a passive output is read from"),
            Output::Program(_) => unreachable!("a program is its own process"),
        };
        let (cache, in_flight) = (&mut self.cache, &mut self.in_flight);
        deliver(wiring, &mut chunk.out, chunk.end, seq, &mut |port, arg| {
            in_flight.push_back(host.call(cache, seq.is_some(), port.uid, ops::WRITE, arg));
        });
        self.reap(host, wait)
    }

    /// Take acknowledgements in, oldest first, until fewer than `window`
    /// writes are out — none, once the end of the stream is. `None` while
    /// one that must be in is not.
    fn reap(&mut self, host: &impl Host, wait: bool) -> Option<Result<()>> {
        while self.in_flight.len() >= self.window || (self.ended && !self.in_flight.is_empty()) {
            let front = self.in_flight.front_mut().expect("non-empty checked");
            let acknowledged = host.poll(front, wait)?;
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
/// A retained one (`kept`) then `Write`s what the buffer holds if its
/// output is active — a batch at a time at `base`, each forgotten only once
/// acknowledged — and checkpoints: after each acknowledgement, so that a
/// crash resumes from the last acknowledged position and the receiver's
/// sequence arithmetic absorbs the one batch that may be re-sent; and
/// before whoever gave the chunk hears of it or is asked for more. A
/// passive output has nothing to push: it delivers by retaining, and its
/// reader will come.
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
        let delivered = output.consume(host, Chunk { out, end }, Some(kept.base), true);
        delivered.expect("a wait comes back with the outcome")?;
        kept.forget(&mut buffer.queues[0], n);
        (kept.out_end, kept.dirty) = (end, true);
        kept.save(host, input, buffer)?;
    }
    kept.save(host, input, buffer)
}

/// What a chunk of a step came to: it went through; nothing more can go
/// until a reply that is out settles, a reader or a writer comes, or ever;
/// or a retained stage made no progress, and pauses before it carries on.
enum Flow {
    Moved,
    Stop,
    Again,
}

/// Where a stage's process stands between two steps.
#[derive(Debug, Default)]
struct Process {
    /// From activation, or from `Start` — whose reply waits for the stream
    /// to be delivered whole — until the stream is through or has failed.
    started: bool,
    done: bool,
    start: Option<ReplyHandle>,
    /// The next step is on its way: posted, now or by the timer, or to be
    /// posted by a reply.
    next: bool,
    /// Its starter's span, which its invocations go out under.
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
    /// What a retained stage keeps beside all this ([`crate::recovery`]);
    /// `None` on a volatile one.
    kept: Option<Box<Kept>>,
    /// Deactivates once its stream has been read to the end, or has ended
    /// into its local output — and, never having checkpointed, disappears
    /// (§7). A reader answers `Close` at once; an acceptor parks it
    /// (`closing`) until its stream has ended, and answers how (`ended`).
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
        // Windowing needs a single destination.
        let window = match &output {
            Output::Active(wiring) if wiring.fan_out() > 1 => 1,
            _ => config.window.max(1),
        };
        let mut names = Vec::new();
        if out_passive {
            names.push(OUTPUT_NAME);
            names.extend(transform.iter().flat_map(|t| t.secondary_channels()));
        }
        Stage {
            name,
            in_passive: matches!(input, Input::Passive | Input::Zipped(_)),
            out_passive,
            input: InFace {
                face: input,
                transform,
                flushed: false,
                pulling: Pull::default(),
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
            kept: None,
            disposable: false,
            closing: None,
            ended: None,
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
        stage.input.flushed = ended;
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

    /// Checkpoint a retained stage, if anything changed since the last one.
    fn save(&mut self, host: &impl Host) -> Result<()> {
        let Some(kept) = &mut self.kept else {
            return Ok(());
        };
        let input = &self.input;
        self.meet.with(|buffer| kept.save(host, input, buffer))
    }

    /// An active face runs in the stage's process when there is a buffer to
    /// meet the handlers at, or no passive face whose handler could run it.
    fn in_step(&self) -> bool {
        !self.in_passive && (self.depth > 0 || !self.out_passive)
    }

    fn out_step(&self) -> bool {
        !self.out_passive && (self.depth > 0 || !self.in_passive)
    }

    /// A pump over a local supply waits to be told to `Start`; every other
    /// process starts with its stage — and so does a retained stage's, which
    /// has to start again with every reactivation, unasked.
    fn awaits_start(&self) -> bool {
        matches!(self.input.face, Input::Local(_)) && !self.out_passive && self.kept.is_none()
    }

    /// Start the stage's process, if it has one: `start` is the deferred
    /// reply to `Start`, answered when the stream has been delivered whole.
    fn start(&mut self, host: &impl Host, start: Option<ReplyHandle>) {
        let started = self.in_step() || self.out_step();
        let ambient = eden_core::span::current();
        self.process = Process {
            started,
            start,
            ambient,
            ..Process::default()
        };
        self.kick(host);
    }

    /// Post the process a step, unless the next is on its way already or it
    /// does not run.
    fn kick(&mut self, host: &impl Host) {
        let p = &mut self.process;
        if p.started && !p.done && !std::mem::replace(&mut p.next, true) {
            host.nudge();
        }
    }

    /// One step of the process (module docs): chunks while every call
    /// settles at once, up to `CHUNKS_A_STEP`, then the next step posted —
    /// unless a reply is out, which posts it, or there is nothing to do.
    fn step(&mut self, host: &impl Host) {
        if !self.process.started || self.process.done {
            return;
        }
        let _span = self
            .process
            .ambient
            .map(|ctx| eden_core::span::enter(Some(ctx)));
        let retained = self.kept.is_some();
        for _ in 0..CHUNKS_A_STEP {
            // Retries exhausted under heavy fault load: a retained stage
            // carries on from the same positions rather than strand the
            // stream (a write that may or may not have landed is re-sent with
            // the same sequence; the receiver deduplicates).
            match self
                .advance(host)
                .or_else(|e| if retained { Ok(Flow::Again) } else { Err(e) })
            {
                Ok(Flow::Moved) => {}
                Ok(Flow::Stop) => {
                    // A reply that is out posts the next step as it settles.
                    let out =
                        !self.input.pulling.out.is_empty() || !self.output.in_flight.is_empty();
                    self.process.next = out;
                    return;
                }
                Ok(Flow::Again) => {
                    // Nothing moved: the next step comes from the timer,
                    // and this worker is free meanwhile.
                    self.process.next = true;
                    return host.nudge_after(recovery::POLL);
                }
                Err(e) => return self.finish(host, Err(e)),
            }
        }
        self.kick(host);
    }

    /// One chunk of a step: from the input face, or the buffer if the
    /// handlers run that face; to the output face, or the buffer if the
    /// handlers run that one. What the last chunk left out comes in first.
    fn advance(&mut self, host: &impl Host) -> Result<Flow> {
        let (from_face, to_face) = (self.in_step(), self.out_step());
        if to_face {
            match self.output.reap(host, false) {
                None => return Ok(Flow::Stop),
                Some(acknowledged) => acknowledged?,
            }
            // The write in hand is delivered: it no longer counts against the
            // depth, and a parked writer may now be admitted.
            if !from_face && self.meet.with(|b| std::mem::take(&mut b.delivering)) {
                self.settle(host);
            }
            // A retained stage is through once its end is acknowledged, not
            // once it is sent: an end whose `Write` failed goes again.
            if self.kept.as_ref().map_or(self.output.ended, |k| k.out_end) {
                self.finish(host, Ok(()));
                return Ok(Flow::Stop);
            }
        }
        let kept = self.kept.as_deref_mut();
        let chunk = if !from_face {
            match self.meet.with(Buffer::take_write) {
                Some(chunk) => chunk,
                None => return Ok(Flow::Stop),
            }
        } else if kept.is_some() && self.meet.with(|b| b.occupancy() > 0) {
            // What a failed delivery left in the buffer goes out before more
            // comes in: the next pull's position would acknowledge records
            // that only memory holds.
            Chunk::default()
        } else if to_face {
            let at = kept.as_ref().map(|kept| kept.consumed);
            let Some(chunk) = self.input.produce(host, self.batch, kept, false) else {
                return Ok(Flow::Stop);
            };
            let chunk = chunk?;
            let consumed = self.kept.as_ref().map(|kept| kept.consumed);
            if at.is_some() && consumed == at && !self.input.flushed {
                // A dry upstream buffer, and the stream still open: a
                // retained passive output parks nobody, so poll.
                return Ok(Flow::Again);
            }
            chunk
        } else {
            if self.input.flushed {
                self.finish(host, Ok(()));
                return Ok(Flow::Stop);
            }
            // The window holds at least one batch: pre-pulling less would
            // starve the whole batches a reader is served. (A pull that is
            // out was asked for when there was room.)
            let room = self
                .depth
                .max(self.batch)
                .saturating_sub(self.meet.with(|b| b.occupancy()));
            if room == 0 && self.input.pulling.out.is_empty() {
                return Ok(Flow::Stop);
            }
            match self.input.produce_or_end(host, self.batch.min(room), false) {
                Some(chunk) => chunk,
                None => return Ok(Flow::Stop),
            }
        };
        match (to_face, self.kept.as_deref_mut()) {
            (true, Some(kept)) => {
                let (input, output) = (&self.input, &mut self.output);
                self.meet
                    .with(|b| retain(host, input, Some(output), b, Some(kept), chunk))?;
            }
            (true, None) => match self.output.consume(host, chunk, None, false) {
                None => return Ok(Flow::Stop),
                Some(delivered) => delivered?,
            },
            (false, _) => {
                self.meet.with(|b| b.put(chunk))?;
                self.settle(host);
            }
        }
        Ok(Flow::Moved)
    }

    /// The process is through: with the stream delivered whole, or failed.
    /// Whoever is parked at the buffer must not wait for what will not come,
    /// a local output hears of a failure, and `Start` is answered.
    fn finish(&mut self, host: &impl Host, result: Result<()>) {
        self.process.done = true;
        self.input.pulling.out.clear();
        self.output.in_flight.clear();
        if let (Err(e), Output::Local(sink)) = (&result, &mut self.output.face) {
            sink.fail(e.clone());
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
    /// reads comes out of it as a push-ahead step's writes do.
    fn spawn_program(&mut self, ctx: &EjectContext) {
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
        let here = !self.out_passive && !self.out_step();
        let mut kept = self.kept.as_deref_mut();
        if let Some(Err(gap)) = kept.as_ref().map(|kept| kept.sequence(&mut w)) {
            return reply.reply(Err(gap));
        }
        // A re-sent end of stream is a no-op; a record beyond the closed
        // stream's end is a sender's bug.
        if self.input.flushed && !w.items.is_empty() {
            let refused = EdenError::Application("write after end of stream".into());
            return reply.reply(Err(refused));
        }
        let chunk = self.input.accept(host, w, kept.as_deref_mut());
        let end = chunk.end;
        let (input, output) = (&self.input, &mut self.output);
        let result = match (here, kept) {
            (true, None) => output.consume(host, chunk, None, true).expect("waited"),
            (here, kept) => {
                let output = Some(output).filter(|_| here);
                self.meet
                    .with(|buffer| retain(host, input, output, buffer, kept, chunk))
            }
        };
        let result = result.map(|()| Value::Unit);
        if end && self.disposable {
            self.ended = Some(result.clone());
        }
        reply.reply(result);
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
            // Secondary channels fill only as a by-product of primary
            // demand — §4's laziness means reports trail the main stream.
            if let Err(e) = self.fill(host, req.max) {
                return reply.reply(Err(e));
            }
        }
        // Readers are served in the order they came: one that finds others
        // parked waits behind them, even if the process has just put enough.
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
            }
        }
        self.settle(host);
    }

    /// Depth 0: run the input face here, now, until `want` primary records
    /// wait or the input ends. (A no-op when the input face is passive or
    /// the process runs it.) Only a retained stage's fails.
    fn fill(&mut self, host: &impl Host, want: usize) -> Result<()> {
        if self.in_passive || self.in_step() {
            return Ok(());
        }
        let mut have = self.meet.with(|buffer| buffer.occupancy());
        while have < want && !self.input.flushed {
            // A peer is asked for a batch; a local supply yields exactly
            // what is asked for.
            let ask = match self.input.face {
                Input::Local(_) => want - have,
                _ => self.batch,
            };
            let mut kept = self.kept.as_deref_mut();
            let chunk = match kept.as_deref_mut() {
                None => self.input.produce_or_end(host, ask, true),
                // A retained stage's reader gets the error, and asks again.
                Some(kept) => self
                    .input
                    .produce(host, ask, Some(kept), true)
                    .transpose()?,
            };
            let chunk = chunk.expect("a wait comes back with the outcome");
            // And what it pulled is durable before the next pull's position
            // leaves, which tells the upstream to discard what only memory
            // would have otherwise.
            let input = &self.input;
            have = self.meet.with(|buffer| {
                retain(host, input, None, buffer, kept, chunk)?;
                Ok::<_, EdenError>(buffer.occupancy())
            })?;
        }
        Ok(())
    }

    fn read(&mut self, idx: usize, max: usize) -> Option<Batch> {
        // A prefetched primary reader is served whole batches (capped by
        // the stage's own): answering a 64-record ask with the 4 records
        // that happen to be buffered would turn one invocation into many.
        let whole = idx == 0 && self.in_step();
        // A retained output parks nobody — a parked reply would die with a
        // crash anyway: it answers an empty batch, and its reader polls.
        let keep = self.kept.is_some();
        let fill = match (keep, whole) {
            (true, _) => 0,
            (_, true) => max.min(self.batch),
            _ => 1,
        };
        self.meet.with(|buffer| buffer.read(idx, max, fill, keep))
    }

    /// Deactivate a disposable stage whose stream is done: read out to its
    /// end, delivered by its process, or ended into its output and closed.
    fn dispose(&mut self, ctx: &EjectContext) {
        let done = |b: &mut Buffer| b.closed || (b.ended && b.occupancy() == 0);
        if let (Some(_), Some(ended)) = (&self.closing, &self.ended) {
            self.closing.take().expect("matched").reply(ended.clone());
        } else if self.closing.is_some() || !self.meet.with(done) {
            return;
        }
        ctx.request_deactivate();
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
    // handle, and after that touches only its own buffer and posts its
    // process a step: a write admitted from `settle` goes into the buffer,
    // never downstream. The one pair of faces that breaks this is a zipped
    // input behind a passive output: answering a `Transfer` makes room, and
    // admitting the parked write that takes it reads the secondary port.
    fn replies_last(&self) -> bool {
        let zipped = matches!(self.input.face, Input::Zipped(_));
        !(zipped && self.out_passive)
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
            // An acceptor closes once its stream has ended into its output,
            // and says so to the one `Close` it parked.
            ops::CLOSE if self.disposable && self.in_passive && self.closing.is_some() => {
                reply.reply(Err(EdenError::Application("already closing".into())));
            }
            ops::CLOSE if self.disposable && self.in_passive => {
                reply.mark_deferred();
                self.closing = Some(reply);
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
                    let all = self.meet.with(|buffer| {
                        let idx = buffer.table.index_of(req.channel)?;
                        Ok(Batch {
                            items: buffer.queues[idx].iter().skip(skip).cloned().collect(),
                            end: buffer.ended,
                        })
                    });
                    all.map(|all| all.to_value())
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
        self.kick(ctx);
        if self.disposable {
            self.dispose(ctx);
        }
    }

    fn internal(&mut self, ctx: &EjectContext, _event: Value) {
        // A step was posted, a reply the process waits for is in, or a
        // program has put or taken something, or is done.
        self.process.next = false;
        self.settle(ctx);
        self.step(ctx);
        if self.disposable {
            self.dispose(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::recovery::TransformRegistry;
    use crate::source::FnSource;
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
        // The one pair of faces that may wait after a reply: answering a
        // `Transfer` makes room in a capacity-1 pipe, and admitting the
        // parked `Write` that takes it reads the secondary port. Such a
        // stage must not declare `replies_last` (a debug build would crash
        // it at that read), and must still deliver the zipped stream.
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
            PendingReply::ready(self.answer(op, arg))
        }

        fn poll(&self, pending: &mut PendingReply, _: bool) -> Option<Result<Value>> {
            Some(std::mem::replace(pending, PendingReply::ready(Err(EdenError::Timeout))).wait())
        }

        fn nudge(&self) {}

        fn nudge_after(&self, _: Duration) {}

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
            Ok(Value::Unit)
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
