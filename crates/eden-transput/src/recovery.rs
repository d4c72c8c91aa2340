//! Checkpoint-driven stream recovery: pipelines that survive fail-stop
//! crashes of any stage without losing or duplicating a record.
//!
//! §7 of the paper observes that an Eject which has checkpointed survives a
//! crash as its passive representation and is "automatically reactivated by
//! the Eden kernel when it is next invoked". This module turns that
//! mechanism into an end-to-end guarantee for streams with **one stage, two
//! faces and one step** — the paper's {active, passive} × {input, output}
//! is one construction seen from two sides, so it is written once.
//!
//! ## Two faces
//!
//! A stage's input and its output are each *active* or *passive*:
//!
//! * an **active input** holds the upstream's UID and pulls: a `Transfer`
//!   at `consumed`, the number of input records taken so far;
//! * a **passive input** accepts sequenced `Write`s, skipping the overlap
//!   of a re-sent batch and refusing one that would leave a gap;
//! * an **active output** holds the downstream's UID and pushes: a `Write`
//!   at `base`, the number of output records acknowledged so far;
//! * a **passive output** serves positional `Transfer`s out of the buffer
//!   of produced-but-unacknowledged records, which starts at `base`.
//!
//! Every role a pipeline needs is a choice of faces. A read-only filter is
//! (active, passive), a write-only filter (passive, active), the
//! conventional pump (active, active) and the passive buffer between two
//! pumps (passive, passive). A source is a stage whose buffer is pre-loaded
//! and whose input is already closed; the acceptor is a (passive, passive)
//! stage nobody reads positionally, so it retains everything and hands it
//! over whole on [`READ_ALL`]. A discipline is then a table of face pairs,
//! and that one table yields both the wiring [`recovery_graph`] checks and
//! the Ejects [`run_recoverable_pipeline`] spawns.
//!
//! ## One step
//!
//! Take input, run the transform, deliver output, checkpoint, acknowledge.
//! The invocation that arrives on a passive face drives the step; a stage
//! with nobody to invoke it (both faces active, or the head of a pushed
//! chain) is `Start`ed and steps on a worker process instead. Three
//! ingredients make the step exactly-once:
//!
//! 1. **Positions on the wire.** Every `Transfer` carries the reader's
//!    absolute stream position ([`TransferRequest::pos`]) and every `Write`
//!    the absolute position of its first record ([`WriteRequest::seq`]).
//!    The position doubles as a cumulative acknowledgement — a producer
//!    discards what lies below the highest position it has been asked for,
//!    a receiver skips what lies below what it has accepted — so no second
//!    message, and no second crash window, is needed to acknowledge.
//! 2. **Checkpoint before acknowledge.** A stage writes its passive
//!    representation to the [`StableStore`] *before* it replies, and before
//!    it sends a position that acknowledges its upstream, so the stable
//!    state never claims less than a peer has been told and a peer never
//!    discards what the stable state still needs.
//! 3. **Retry against a reactivating kernel.** Stream invocations travel
//!    with a [`RetryPolicy`]; a retry of an invocation whose target crashed
//!    reactivates the target from its checkpoint (activation on invocation,
//!    §1), and the re-sent position makes the repeat idempotent.
//!
//! Together these give exactly-once delivery across a fail-stop crash of
//! any single stage — and, because every window between checkpoint and
//! acknowledgement is closed by the position arithmetic, across repeated
//! crashes too, provided the mounted [`Transform`]s are **deterministic**
//! (a re-run of an unacknowledged input from the same state must reproduce
//! byte-identical output). A transform may be stateful: what
//! [`Transform::state`] reports is part of the checkpoint and is
//! [`restore`](Transform::restore)d into the transform the registry rebuilds
//! by name, so counters and sorters come back holding what they held — at
//! the price of a checkpoint that grows with it. Secondary emission channels
//! are not forwarded.
//!
//! Two consequences of recovering from positions alone:
//!
//! * A worker-driven stage receives no stream invocations, so a crashed one
//!   would stay passive forever; the driving loop "nudges" every stage with
//!   a fault-immune `Describe` while it waits, which reactivates any that
//!   have crashed, and `activate` restarts the worker from the checkpoint.
//! * A passive output never parks a reader. An empty buffer replies with an
//!   empty non-final batch and the pump polls, because a parked reply would
//!   die with a crash anyway; polling against the checkpointed position is
//!   what recovery can prove correct.
//!
//! ## The checkpoint
//!
//! One record, written whole: the transform's registry name and its state,
//! the two faces (a peer's UID or unit), the input position `consumed` and
//! `in_end`, the output position `base`, the unacknowledged output `buf` and
//! `out_end`, the batch size, and whether a worker drives the stage. The
//! positions, the buffer and the transform's state describe one instant, so
//! a reactivated stage is the crashed one as of its last acknowledgement.
//!
//! [`StableStore`]: eden_kernel::StableStore

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_core::op::ops;
use eden_core::{EdenError, Result, Uid, Value};
use eden_kernel::{
    EjectBehavior, EjectContext, Invocation, InvokeOptions, Kernel, ProcessContext, ReplyHandle,
    RetryPolicy,
};

use crate::conform::{DisciplineKind, EdgeMode, Mode, NodeRole, WiringGraph};
use crate::protocol::{Batch, TransferRequest, WriteRequest, OUTPUT_NAME};
use crate::transform::{self, Transform};

/// The operation a [`run_recoverable_pipeline`] driver uses to read the
/// terminal acceptor: replies with a [`Batch`] of everything accepted so
/// far, `end` set once the stream has closed. Keeping the output *inside*
/// the acceptor's checkpoint (rather than pushing it to an external
/// collector) is what lets the terminal stage recover exactly: the records
/// and the position that acknowledges them are one atomic state.
pub const READ_ALL: &str = "ReadAll";

/// Starts the worker of a stage no stream invocation will ever drive.
const START: &str = "Start";

/// The one Eden type every recoverable stage is registered under.
const STAGE_TYPE: &str = "RecoverableStage";

/// How long a worker pauses before it retries a step that made no progress.
const POLL: Duration = Duration::from_millis(1);

/// The retry policy stream invocations travel with: patient enough to ride
/// out a reactivation, fast enough that the chaos benchmarks measure
/// recovery latency rather than backoff pauses.
fn stream_opts() -> InvokeOptions<'static> {
    InvokeOptions::new()
        .retry(
            RetryPolicy::retries(24)
                .base_delay(Duration::from_millis(1))
                .max_delay(Duration::from_millis(25)),
        )
        .deadline(Duration::from_secs(20))
}

/// Options for control-plane traffic (starting workers, polling the
/// acceptor, nudging crashed stages): immune to the fault plan, so chaos
/// experiments perturb the stream itself, not the experiment's harness.
fn control_opts() -> InvokeOptions<'static> {
    InvokeOptions::new()
        .immune()
        .retry(RetryPolicy::retries(8).base_delay(Duration::from_millis(1)))
}

/// A constructor for one named, deterministic [`Transform`].
pub type TransformFactory = fn() -> Box<dyn Transform>;

/// A named catalogue of transform constructors, used to rebuild a stage's
/// [`Transform`] on reactivation (a function is not checkpointable; its
/// name and its [`Transform::state`] are).
#[derive(Clone, Default, Debug)]
pub struct TransformRegistry {
    map: Arc<HashMap<String, TransformFactory>>,
}

impl TransformRegistry {
    /// Build a registry from `(name, constructor)` pairs.
    pub fn new(entries: &[(&str, TransformFactory)]) -> TransformRegistry {
        TransformRegistry {
            map: Arc::new(entries.iter().map(|(n, f)| ((*n).to_owned(), *f)).collect()),
        }
    }

    /// Construct a fresh transform. The empty name is the identity
    /// (pass-through) transform; unknown names are an error.
    fn build(&self, name: &str) -> Result<Option<Box<dyn Transform>>> {
        if name.is_empty() {
            return Ok(None);
        }
        match self.map.get(name) {
            Some(f) => Ok(Some(f())),
            None => Err(EdenError::Application(format!(
                "no transform named `{name}` in the recovery registry"
            ))),
        }
    }
}

fn uint_field(v: &Value, name: &str) -> Result<u64> {
    Ok(v.field(name)?.as_int()?.max(0) as u64)
}

/// Decode a face from a checkpoint: a UID is an active face's peer, unit a
/// passive face.
fn peer_field(v: &Value, name: &str) -> Result<Option<Uid>> {
    match v.field(name)? {
        Value::Unit => Ok(None),
        peer => peer.as_uid().map(Some),
    }
}

/// A passive face's refusal of a request that does not say where in the
/// stream it stands: served anyway, a retried `Write` would be applied twice
/// and a `Transfer` would acknowledge nothing and read one batch forever.
fn unpositioned(op: &str, field: &str) -> EdenError {
    EdenError::BadParameter(format!(
        "a recoverable stage needs `{field}` on every {op}"
    ))
}

// ---------------------------------------------------------------------------
// The stage.
// ---------------------------------------------------------------------------

/// What a step needs from whoever runs it: the Eject's own coordinator for
/// a step an invocation drives, its worker process for a `Start`ed stage —
/// and a recording fake in the face tests below.
trait Host {
    /// Invoke a stream operation on a peer and wait for its reply.
    fn call(&self, target: Uid, op: &'static str, arg: Value) -> Result<Value>;
    /// Write the stage's passive representation to stable storage.
    fn checkpoint(&self, state: &Value) -> Result<()>;
}

impl Host for EjectContext {
    fn call(&self, target: Uid, op: &'static str, arg: Value) -> Result<Value> {
        self.invoke_with(target, op, arg, stream_opts())
            .wait_timeout(Duration::from_secs(20))
    }

    fn checkpoint(&self, state: &Value) -> Result<()> {
        EjectContext::checkpoint(self, state)
    }
}

impl Host for ProcessContext {
    fn call(&self, target: Uid, op: &'static str, arg: Value) -> Result<Value> {
        self.wait_or_stop(self.invoke_with(target, op, arg, stream_opts()))
    }

    fn checkpoint(&self, state: &Value) -> Result<()> {
        ProcessContext::checkpoint(self, state)
    }
}

/// One recoverable stream stage over {active, passive}² (module docs).
#[derive(Debug)]
struct RecoverableStage {
    transform_name: String,
    transform: Option<Box<dyn Transform>>,
    registry: TransformRegistry,
    /// `Some`: the input is active and pulls this Eject at `consumed`.
    /// `None`: the input is passive and accepts `Write`s.
    upstream: Option<Uid>,
    /// `Some`: the output is active and pushes to this Eject at `base`.
    /// `None`: the output is passive and serves `Transfer`s.
    downstream: Option<Uid>,
    /// Input records taken: the pull position of an active input, the next
    /// sequence number a passive one accepts.
    consumed: u64,
    /// The input has ended and the transform has flushed.
    in_end: bool,
    /// Output records the downstream has acknowledged — by reading past
    /// them (passive output) or by replying to the `Write` that carried
    /// them (active output). The stream position of `buf[0]`.
    base: u64,
    /// Output produced and not yet acknowledged.
    buf: VecDeque<Value>,
    /// An active output has delivered end-of-stream and had it acknowledged.
    out_end: bool,
    /// Records per pull and per push.
    batch: usize,
    /// A worker drives this stage (it was `Start`ed).
    started: bool,
    /// The in-memory state is ahead of the last checkpoint.
    dirty: bool,
    recovered: bool,
}

impl RecoverableStage {
    /// A fresh stage running `transform_name` (empty = identity) between an
    /// active face for each peer given and a passive one for each `None`.
    fn new(
        transform_name: &str,
        registry: &TransformRegistry,
        upstream: Option<Uid>,
        downstream: Option<Uid>,
        batch: usize,
    ) -> Result<RecoverableStage> {
        Ok(RecoverableStage {
            transform_name: transform_name.to_owned(),
            // Built now so a typo fails at build, not mid-stream.
            transform: registry.build(transform_name)?,
            registry: registry.clone(),
            upstream,
            downstream,
            consumed: 0,
            in_end: false,
            base: 0,
            buf: VecDeque::new(),
            out_end: false,
            batch: batch.max(1),
            started: false,
            dirty: false,
            recovered: false,
        })
    }

    /// Make this stage a source: `items` are its whole output and its
    /// input is closed. The record list lives in the checkpoint, so a
    /// reactivated source re-serves any unacknowledged suffix
    /// byte-for-byte.
    fn preloaded(mut self, items: Vec<Value>) -> RecoverableStage {
        self.buf = items.into();
        self.in_end = true;
        self
    }

    fn state(&self) -> Value {
        let peer = |p: Option<Uid>| p.map_or(Value::Unit, Value::Uid);
        // Unit: no transform mounted, or one with nothing worth saving.
        let transform_state = self.transform.as_ref().and_then(|t| t.state());
        Value::record([
            ("transform", Value::str(self.transform_name.clone())),
            ("transform_state", transform_state.unwrap_or(Value::Unit)),
            ("upstream", peer(self.upstream)),
            ("downstream", peer(self.downstream)),
            ("consumed", Value::Int(self.consumed as i64)),
            ("in_end", Value::Bool(self.in_end)),
            ("base", Value::Int(self.base as i64)),
            (
                "buf",
                Value::list(self.buf.iter().cloned().collect::<Vec<_>>()),
            ),
            ("out_end", Value::Bool(self.out_end)),
            ("batch", Value::Int(self.batch as i64)),
            ("started", Value::Bool(self.started)),
        ])
    }

    fn from_state(v: Value, registry: &TransformRegistry) -> Result<RecoverableStage> {
        let name = v.field("transform")?.as_str()?.to_owned();
        // Rebuilt by name, then put back in the state it held at `consumed`:
        // the input replayed from that position lands on the transform that
        // first saw it.
        let mut transform = registry.build(&name)?;
        match (&mut transform, v.field("transform_state")?) {
            (None, _) | (_, Value::Unit) => {}
            (Some(t), state) => t.restore(state)?,
        }
        Ok(RecoverableStage {
            transform,
            transform_name: name,
            registry: registry.clone(),
            upstream: peer_field(&v, "upstream")?,
            downstream: peer_field(&v, "downstream")?,
            consumed: uint_field(&v, "consumed")?,
            in_end: v.field("in_end")?.as_bool()?,
            base: uint_field(&v, "base")?,
            buf: v.field("buf")?.as_list()?.iter().cloned().collect(),
            out_end: v.field("out_end")?.as_bool()?,
            batch: uint_field(&v, "batch")?.max(1) as usize,
            started: v.field("started")?.as_bool()?,
            dirty: false,
            recovered: true,
        })
    }

    /// Checkpoint if anything changed since the last one.
    fn save(&mut self, host: &impl Host) -> Result<()> {
        if self.dirty {
            host.checkpoint(&self.state())?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Take `items` as input: run them through the transform (flushing it
    /// if they end the stream) and buffer what comes out.
    fn absorb(&mut self, items: Vec<Value>, end: bool) {
        let end = end && !self.in_end;
        self.dirty |= end || !items.is_empty();
        self.consumed += items.len() as u64;
        let mut out = transform::step(&mut self.transform, items, end);
        self.buf.extend(out.take_primary());
        self.in_end |= end;
    }

    /// The active input face: one `Transfer` at `consumed`. Upstream
    /// crashes are ridden out by the retry policy; the retried Transfer
    /// carries the same position, so the reactivated upstream re-serves
    /// from exactly where this stage left off. Returns the records taken.
    fn pull(&mut self, host: &impl Host, upstream: Uid) -> Result<usize> {
        let req = TransferRequest::primary(self.batch).at(self.consumed);
        let pulled = Batch::from_value(host.call(upstream, ops::TRANSFER, req.to_value())?)?;
        let n = pulled.items.len();
        self.absorb(pulled.items, pulled.end);
        Ok(n)
    }

    /// The active output face: `Write`s at `base`, a batch at a time, until
    /// everything produced (and the end of the stream, once the input has
    /// closed) is acknowledged. Each acknowledgement is checkpointed before
    /// the next write, so a crash resumes from the last acknowledged
    /// position and the receiver's sequence arithmetic absorbs the one
    /// batch that may be re-sent. A passive output has nothing to push: it
    /// delivers by retaining, and its reader will come.
    fn push(&mut self, host: &impl Host) -> Result<()> {
        let Some(downstream) = self.downstream else {
            return Ok(());
        };
        while !self.buf.is_empty() || (self.in_end && !self.out_end) {
            let n = self.batch.min(self.buf.len());
            let end = self.in_end && n == self.buf.len();
            let req = WriteRequest {
                channel: Default::default(),
                items: self.buf.iter().take(n).cloned().collect(),
                end,
                seq: Some(self.base),
            };
            host.call(downstream, ops::WRITE, req.to_value())?;
            self.buf.drain(..n);
            self.base += n as u64;
            self.out_end = end;
            self.dirty = true;
            self.save(host)?;
        }
        Ok(())
    }

    /// The passive input face: a sequenced `Write`. Whatever the step
    /// produces is pushed on (active output) or retained (passive output)
    /// and the whole step checkpointed before the write is acknowledged, so
    /// every crash window resolves to a re-send the sequence arithmetic
    /// deduplicates.
    fn accept(&mut self, host: &impl Host, req: WriteRequest) -> Result<Value> {
        let seq = req.seq.ok_or_else(|| unpositioned("Write", "seq"))?;
        if seq > self.consumed {
            return Err(EdenError::BadParameter(format!(
                "write at {seq} leaves a gap after {}",
                self.consumed
            )));
        }
        // Skip the overlap of a re-sent batch (sequence arithmetic is the
        // dedupe).
        let skip = ((self.consumed - seq) as usize).min(req.items.len());
        let mut fresh = req.items;
        fresh.drain(..skip);
        // A retried final write is all overlap and stays a no-op; a record
        // beyond the closed stream's end is a sender's bug.
        if self.in_end && !fresh.is_empty() {
            return Err(EdenError::Application("write after end of stream".into()));
        }
        self.absorb(fresh, req.end);
        self.push(host)?;
        self.save(host)?;
        Ok(Value::Unit)
    }

    /// The passive output face: a positional `Transfer`. The buffer retains
    /// records until the reader's position acknowledges them, so a reader
    /// retrying after a crash (its own, or this stage's) re-reads exactly
    /// what it missed.
    fn serve(&mut self, host: &impl Host, req: TransferRequest) -> Result<Value> {
        let pos = req.pos.ok_or_else(|| unpositioned("Transfer", "pos"))?;
        if pos < self.base {
            // The acknowledged prefix is gone; a position below it means
            // the reader rewound further than we retained.
            return Err(EdenError::BadParameter(format!(
                "position {pos} below retained base {}",
                self.base
            )));
        }
        // The position acknowledges everything before it.
        let acked = ((pos - self.base) as usize).min(self.buf.len());
        self.buf.drain(..acked);
        self.base += acked as u64;
        self.dirty |= acked > 0;
        if let Some(upstream) = self.upstream {
            // `consumed` is durable as the step begins; once a pull has
            // moved it, checkpoint before pulling again — the next position
            // tells the upstream to discard what only memory has so far.
            let durable = self.consumed;
            while !self.in_end && self.buf.len() < req.max {
                if self.consumed != durable {
                    self.save(host)?;
                }
                self.pull(host, upstream)?;
            }
        }
        // Checkpoint before reply: the stable state must not claim less
        // progress than the reader has seen.
        self.save(host)?;
        let n = req.max.min(self.buf.len());
        let batch = Batch {
            items: self.buf.iter().take(n).cloned().collect(),
            end: self.in_end && n == self.buf.len(),
        };
        Ok(batch.to_value())
    }

    /// One worker-driven step: pull if there is nothing to deliver, then
    /// deliver. `Ok(false)` means the upstream buffer was dry but the
    /// stream is still open.
    fn work(&mut self, host: &impl Host) -> Result<bool> {
        if let Some(upstream) = self.upstream {
            if self.buf.is_empty() && !self.in_end {
                let taken = self.pull(host, upstream)?;
                if taken == 0 && !self.in_end {
                    return Ok(false);
                }
            }
        }
        self.push(host)?;
        self.save(host)?;
        Ok(true)
    }

    /// Become worker-driven, durably, so a reactivation knows to restart
    /// the worker. A retried `Start` finds it done.
    fn start(&mut self, ctx: &EjectContext) -> Result<Value> {
        if !self.started {
            self.started = true;
            self.dirty = true;
            self.save(ctx)?;
            self.spawn_worker(ctx);
        }
        Ok(Value::Unit)
    }

    /// Run [`work`](Self::work) on a worker process until the stream has
    /// been delivered whole. The worker steps a copy of this stage and
    /// checkpoints it under this Eject's UID; a reactivation starts a new
    /// worker from whatever that copy last saved.
    fn spawn_worker(&self, ctx: &EjectContext) {
        let mut stage = RecoverableStage::from_state(self.state(), &self.registry)
            .expect("a state this stage rendered, a transform it already built");
        ctx.spawn_process("stage", move |pctx| {
            // Done once the end of the stream is delivered and that is durable.
            while !pctx.should_stop() && (!stage.out_end || stage.dirty) {
                match stage.work(&pctx) {
                    Ok(true) => {}
                    Err(EdenError::KernelShutdown) => return,
                    // A dry upstream buffer, or retries exhausted under
                    // heavy fault load: pause and carry on from the same
                    // positions rather than stranding the stream (a write
                    // that may or may not have landed is re-sent with the
                    // same sequence; the receiver deduplicates).
                    // eden-lint: nonblocking(spawn_process worker thread, not a pool worker)
                    Ok(false) | Err(_) => std::thread::sleep(POLL),
                }
            }
        });
    }
}

impl EjectBehavior for RecoverableStage {
    fn type_name(&self) -> &'static str {
        STAGE_TYPE
    }

    fn activate(&mut self, ctx: &EjectContext) {
        if self.recovered {
            ctx.metrics().record_recovered_stream();
        }
        // Durable from birth: a crash before the first stream operation
        // must leave a reactivatable Eject, not a vanished one.
        let _ = ctx.checkpoint(&self.state());
        if self.started && !self.out_end {
            self.spawn_worker(ctx);
        }
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        // A face answers only the operations of its mode.
        let result = match inv.op.as_str() {
            ops::WRITE if self.upstream.is_none() => {
                WriteRequest::from_value(inv.arg).and_then(|req| self.accept(ctx, req))
            }
            ops::TRANSFER if self.downstream.is_none() => {
                TransferRequest::from_value(&inv.arg).and_then(|req| self.serve(ctx, req))
            }
            READ_ALL if self.downstream.is_none() => Ok(Batch {
                items: self.buf.iter().cloned().collect(),
                end: self.in_end,
            }
            .to_value()),
            START if self.downstream.is_some() => self.start(ctx),
            _ => Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            }),
        };
        reply.reply(result);
    }
}

/// Register the reactivation constructor for recoverable stages. Must be
/// called (once per kernel) before any recoverable stage can come back from
/// a crash; `registry` must contain every transform the pipelines will
/// mount.
pub fn install_recovery(kernel: &Kernel, registry: &TransformRegistry) {
    let registry = registry.clone();
    kernel.register_type(STAGE_TYPE, move |state| match state {
        Some(v) => Ok(Box::new(RecoverableStage::from_state(v, &registry)?)),
        None => Err(EdenError::Application(
            "a recoverable stage needs a checkpoint".into(),
        )),
    });
}

/// A recoverable source over `items`, to be spawned by the caller: a stage
/// whose buffer is pre-loaded, whose input is closed and whose passive
/// output serves positional `Transfer`s — a read cursor that survives a
/// crash, or the whole kernel, on a kernel with [`install_recovery`] called.
pub fn recoverable_source(items: Vec<Value>) -> Box<dyn EjectBehavior> {
    let stage = RecoverableStage::new("", &TransformRegistry::default(), None, None, 1)
        .expect("the identity transform is in every registry");
    Box::new(stage.preloaded(items))
}

/// A recoverable read-only filter, to be spawned by the caller: an (active,
/// passive) stage running `registry`'s `transform`, pulling `upstream` — a
/// recoverable stage's passive output — `batch` records at a time.
pub fn recoverable_filter(
    transform: &str,
    registry: &TransformRegistry,
    upstream: Uid,
    batch: usize,
) -> Result<Box<dyn EjectBehavior>> {
    let stage = RecoverableStage::new(transform, registry, Some(upstream), None, batch)?;
    Ok(Box::new(stage))
}

// ---------------------------------------------------------------------------
// Disciplines as tables of faces, and the pipeline driver.
// ---------------------------------------------------------------------------

/// Which communication discipline a recoverable pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryDiscipline {
    /// Active input / passive output: the driver pulls the tail filter.
    ReadOnly,
    /// Active output / passive input: a pump pushes through push filters
    /// into the acceptor.
    WriteOnly,
    /// Active input *and* output: pumps move records between passive
    /// buffers (n+1 extra Ejects, 2n+2 invocations per batch — §4's cost).
    Conventional,
}

impl RecoveryDiscipline {
    /// The discipline predicate this wiring is checked against.
    pub fn kind(self) -> DisciplineKind {
        match self {
            RecoveryDiscipline::ReadOnly => DisciplineKind::ReadOnly,
            RecoveryDiscipline::WriteOnly => DisciplineKind::WriteOnly,
            RecoveryDiscipline::Conventional => DisciplineKind::Conventional,
        }
    }
}

/// One row of a discipline's table: a stage, its faces and its place in
/// the wiring graph.
#[derive(Debug)]
struct StageSpec {
    label: String,
    role: NodeRole,
    transform: String,
    input: Mode,
    output: Mode,
}

/// The head-first table of stages `discipline` needs to run `transforms`.
///
/// A discipline is its filters' faces; the rest follows from joining each
/// active face to a passive one. A source is pulled where the filters pull
/// and pumps where they do not; filters that push need an acceptor to push
/// into; and where both faces are active a passive buffer sits between
/// consecutive filters — and a single identity pump still has to move the
/// records when there is no filter at all.
fn stage_specs(discipline: RecoveryDiscipline, transforms: &[&str]) -> Vec<StageSpec> {
    use Mode::{Active, Passive};
    use NodeRole::{Buffer, Filter, Sink, Source};
    let (input, output) = discipline.kind().faces();
    let pumps = (input, output) == (Active, Active);
    let mut specs = Vec::new();
    let mut add = |label: String, role, transform: &str, input, output| {
        let transform = transform.to_owned();
        specs.push(StageSpec {
            label,
            role,
            transform,
            input,
            output,
        });
    };
    add("source".into(), Source, "", Passive, input.peer());
    let filters = if pumps && transforms.is_empty() {
        &[""][..]
    } else {
        transforms
    };
    for (i, name) in filters.iter().enumerate() {
        if pumps && i > 0 {
            add(format!("buf{}", i - 1), Buffer, "", Passive, Passive);
        }
        let kind = if pumps { "pump" } else { "stage" };
        let shown = if name.is_empty() { "copy" } else { name };
        add(format!("{kind}{i}:{shown}"), Filter, name, input, output);
    }
    if output == Active {
        add("acceptor".into(), Sink, "", Passive, Passive);
    }
    specs
}

/// The tail of a table with no acceptor: the driver is then the chain's
/// active sink and pulls it.
fn driver_pulled(specs: &[StageSpec]) -> Option<&StageSpec> {
    specs.last().filter(|tail| tail.role != NodeRole::Sink)
}

/// The wiring of a table: one node per stage, one edge per joint, its mode
/// read off the two faces that meet there.
fn wiring(discipline: RecoveryDiscipline, specs: &[StageSpec]) -> WiringGraph {
    let mut graph = WiringGraph::new(discipline.kind());
    for spec in specs {
        graph.node(spec.label.clone(), spec.role);
    }
    for joint in specs.windows(2) {
        let mode = EdgeMode::between(joint[0].output, joint[1].input);
        graph.edge_mode(
            joint[0].label.clone(),
            OUTPUT_NAME,
            joint[1].label.clone(),
            mode,
        );
    }
    if let Some(tail) = driver_pulled(specs) {
        graph.node("driver", NodeRole::Sink);
        let mode = EdgeMode::between(tail.output, Mode::Active);
        graph.edge_mode(tail.label.clone(), OUTPUT_NAME, "driver", mode);
    }
    graph
}

/// Render the wiring [`run_recoverable_pipeline`] would spawn for this
/// discipline and transform chain, in the same [`WiringGraph`] form the
/// non-recoverable [`crate::pipeline::PipelineSpec`] uses. The driver
/// checks this graph before spawning anything, so a recoverable pipeline
/// that would violate its discipline's shape rules fails statically.
pub fn recovery_graph(discipline: RecoveryDiscipline, transforms: &[&str]) -> WiringGraph {
    wiring(discipline, &stage_specs(discipline, transforms))
}

/// The result of a recoverable pipeline run.
#[derive(Debug)]
pub struct RecoveryRun {
    /// The records that reached the end of the pipeline, in order.
    pub output: Vec<Value>,
    /// Every Eject the pipeline spawned (sources, filters, buffers, pumps,
    /// acceptor), head first. Exposed so chaos tests can crash them.
    pub stages: Vec<Uid>,
    /// The trace id the run's spans carry — stable across retries and
    /// checkpoint-driven reactivation, so the recovered replay is part of
    /// the same causal tree as the first attempt.
    pub trace: u64,
}

/// Build and run a recoverable pipeline of `transforms` over `items` and
/// wait (up to `timeout`) for the complete output.
///
/// [`install_recovery`] must have been called on this kernel with a
/// registry containing every named transform. The run rides out injected
/// faults and crashes of any stage; it fails only if the kernel shuts
/// down, a fatal (non-retryable) error surfaces, or `timeout` passes.
pub fn run_recoverable_pipeline(
    kernel: &Kernel,
    discipline: RecoveryDiscipline,
    items: Vec<Value>,
    transforms: &[&str],
    registry: &TransformRegistry,
    batch: usize,
    timeout: Duration,
) -> Result<RecoveryRun> {
    let specs = stage_specs(discipline, transforms);
    let violations = wiring(discipline, &specs).check();
    if !violations.is_empty() {
        let msgs: Vec<String> = violations.iter().map(ToString::to_string).collect();
        return Err(EdenError::Discipline(msgs.join("; ")));
    }
    let deadline = Instant::now() + timeout;
    // One trace for the whole recoverable affair. Retries re-send under the
    // span captured at first issue, and a reactivated stage's coordinator
    // inherits the ambient of the invocation that woke it, so the trace id
    // survives crash/reactivate cycles — the recovery replay and the first
    // attempt reconstruct as one tree.
    let root = eden_core::span::SpanContext::root();
    let _ambient = eden_core::span::enter(Some(root));

    // An active face holds its peer's UID, so the peer is spawned first.
    // Sweeping tail to head spawns every stage whose peers exist; checked
    // wiring never joins two active faces, so each sweep places at least
    // one stage. (The table gives the head a passive input and the tail a
    // passive output, so a neighbour asked for is a neighbour there is.)
    let mut uids: Vec<Option<Uid>> = vec![None; specs.len()];
    let mut items = Some(items);
    for _ in 0..specs.len() {
        for (i, spec) in specs.iter().enumerate().rev() {
            // `None`: a passive face. `Some(None)`: a peer not spawned yet.
            let upstream = (spec.input == Mode::Active).then(|| uids[i - 1]);
            let downstream = (spec.output == Mode::Active).then(|| uids[i + 1]);
            if uids[i].is_some() || upstream == Some(None) || downstream == Some(None) {
                continue;
            }
            let (upstream, downstream) = (upstream.flatten(), downstream.flatten());
            let mut stage =
                RecoverableStage::new(&spec.transform, registry, upstream, downstream, batch)?;
            if let Some(items) = items.take_if(|_| i == 0) {
                stage = stage.preloaded(items);
            }
            uids[i] = Some(kernel.spawn(Box::new(stage))?);
        }
    }
    let stages: Vec<Uid> = uids
        .into_iter()
        .collect::<Option<_>>()
        .expect("checked wiring leaves every stage a peer to hold");

    // No stream invocation ever reaches a stage whose faces are both active
    // or the head of a pushed chain: those step on a worker.
    for (i, (spec, stage)) in specs.iter().zip(&stages).enumerate() {
        if spec.output == Mode::Active && (spec.input == Mode::Active || i == 0) {
            kernel
                .invoke_with(*stage, START, Value::Unit, control_opts())
                .wait_timeout(time_left(deadline)?)?;
        }
    }
    let pull = driver_pulled(&specs).map(|_| batch.max(1));
    drive(kernel, &stages, pull, deadline).map(|output| RecoveryRun {
        output,
        stages,
        trace: root.trace,
    })
}

/// Resume a write-only or conventional pipeline on a **rebuilt kernel** —
/// the process-restart shape of recovery. `stages` is the head-first list
/// a previous [`RecoveryRun`] reported (its last element is the acceptor);
/// every one of them now exists only as a passive representation replayed
/// out of the durable store the new kernel was built over.
///
/// Nothing is respawned: the driver simply invokes the old UIDs.
/// Activation-on-invocation rebuilds each stage from its checkpoint, a
/// `Start`ed stage's `activate` restarts its worker process from the
/// checkpointed positions, and the sequence arithmetic absorbs the
/// replayed window — the same machinery that rides out a single-stage
/// crash rides out losing the whole kernel.
///
/// [`install_recovery`] must have been called on the new kernel first.
pub fn resume_recoverable_pipeline(
    kernel: &Kernel,
    stages: &[Uid],
    timeout: Duration,
) -> Result<Vec<Value>> {
    drive(kernel, stages, None, Instant::now() + timeout)
}

/// What is left until `deadline`: the bound on every wait the driver makes.
fn time_left(deadline: Instant) -> Result<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .ok_or(EdenError::Timeout)
}

/// Collect the stream from the last of `stages` until it closes.
///
/// With `pull` (records per read) the chain has no acceptor and the driver
/// is its active sink: positional `Transfer`s, which are stream traffic and
/// ride out faults like any stage's. Otherwise the tail is the acceptor:
/// poll it with [`READ_ALL`], and each round nudge every other stage with a
/// fault-immune `Describe` so a crashed worker-driven stage (which nobody
/// else invokes) gets reactivated.
fn drive(
    kernel: &Kernel,
    stages: &[Uid],
    pull: Option<usize>,
    deadline: Instant,
) -> Result<Vec<Value>> {
    let (&tail, nudge) = stages
        .split_last()
        .ok_or_else(|| EdenError::Application("no stages to drive".into()))?;
    let mut output = Vec::new();
    loop {
        let pending = match pull {
            Some(max) => {
                let req = TransferRequest::primary(max).at(output.len() as u64);
                kernel.invoke_with(tail, ops::TRANSFER, req.to_value(), stream_opts())
            }
            None => kernel.invoke_with(tail, READ_ALL, Value::Unit, control_opts()),
        };
        let batch = Batch::from_value(pending.wait_timeout(time_left(deadline)?)?)?;
        if pull.is_some() {
            output.extend(batch.items);
        } else {
            output = batch.items;
        }
        if batch.end {
            return Ok(output);
        }
        if pull.is_none() {
            for stage in nudge {
                // Reactivation-on-invocation is the point; the reply is not.
                let _ = kernel
                    .invoke_with(*stage, ops::DESCRIBE, Value::Unit, control_opts())
                    .wait_timeout(time_left(deadline)?);
            }
            eden_kernel::blocking(|| std::thread::sleep(Duration::from_millis(2)));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use eden_core::wire;

    use super::*;
    use crate::transform::{filter_fn, map_fn};

    const DISCIPLINES: [RecoveryDiscipline; 3] = [
        RecoveryDiscipline::ReadOnly,
        RecoveryDiscipline::WriteOnly,
        RecoveryDiscipline::Conventional,
    ];

    #[test]
    fn recovery_wiring_conforms_in_every_discipline() {
        for discipline in DISCIPLINES {
            for chain in [&[][..], &["upcase"][..], &["upcase", "grep"][..]] {
                let violations = recovery_graph(discipline, chain).check();
                assert!(
                    violations.is_empty(),
                    "{discipline:?} over {chain:?}: {violations:?}"
                );
            }
        }
    }

    #[test]
    fn conventional_recovery_graph_pairs_pumps_with_buffers() {
        let graph = recovery_graph(RecoveryDiscipline::Conventional, &["a", "b", "c"]);
        let count = |role| graph.nodes.values().filter(|r| **r == role).count();
        assert_eq!(count(NodeRole::Filter), 3);
        assert_eq!(count(NodeRole::Buffer), 2); // between consecutive pumps only
    }

    #[test]
    fn edge_modes_are_read_off_the_faces_that_meet() {
        let modes = |discipline| -> Vec<EdgeMode> {
            let graph = recovery_graph(discipline, &["a", "b"]);
            graph.edges.iter().map(|e| e.mode).collect()
        };
        use EdgeMode::{Pull, Push};
        assert_eq!(modes(RecoveryDiscipline::ReadOnly), [Pull, Pull, Pull]);
        assert_eq!(modes(RecoveryDiscipline::WriteOnly), [Push, Push, Push]);
        assert_eq!(
            modes(RecoveryDiscipline::Conventional),
            [Pull, Push, Pull, Push]
        );
    }

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
    /// acknowledges every push, keeps the last checkpoint as the bytes the
    /// stable store would hold, and logs it all.
    #[derive(Default)]
    struct Fake {
        upstream: Vec<Value>,
        log: RefCell<Vec<Event>>,
        stored: RefCell<Vec<u8>>,
    }

    impl Host for Fake {
        fn call(&self, _target: Uid, op: &'static str, arg: Value) -> Result<Value> {
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

        fn checkpoint(&self, state: &Value) -> Result<()> {
            let (consumed, base) = (uint_field(state, "consumed")?, uint_field(state, "base")?);
            self.log
                .borrow_mut()
                .push(Event::Checkpoint { consumed, base });
            *self.stored.borrow_mut() = wire::encode(state);
            Ok(())
        }
    }

    impl Fake {
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

    /// A `double` stage of batch 3 with the given faces active.
    fn stage(active_in: bool, active_out: bool) -> RecoverableStage {
        let peer = |active: bool| active.then(Uid::fresh);
        RecoverableStage::new("double", &registry(), peer(active_in), peer(active_out), 3).unwrap()
    }

    fn write(seq: u64, items: std::ops::Range<i64>, end: bool) -> WriteRequest {
        WriteRequest {
            channel: Default::default(),
            items: ints(items),
            end,
            seq: Some(seq),
        }
    }

    /// The stage a crash would bring back: the stored bytes, decoded and
    /// rebuilt the way the kernel's reactivation does it.
    fn reactivated(host: &Fake) -> RecoverableStage {
        let state = wire::decode(&host.stored.borrow()).unwrap();
        RecoverableStage::from_state(state, &registry()).unwrap()
    }

    #[test]
    fn a_transform_the_registry_lacks_fails_at_build_not_mid_stream() {
        let build = |name| recoverable_filter(name, &registry(), Uid::fresh(), 2);
        assert!(build("double").is_ok());
        let err = build("bogus").expect_err("no such transform");
        assert!(matches!(err, EdenError::Application(_)), "{err}");
    }

    #[test]
    fn passive_input_face_dedupes_rejects_gaps_and_closes() {
        for active_out in [false, true] {
            let case = format!("output active: {active_out}");
            let host = Fake::default();
            let mut s = stage(false, active_out);
            // Everything the stage has let out, by whichever face it has.
            let produced = |s: &RecoverableStage, host: &Fake| -> Vec<Value> {
                let pushed = host.pushes().into_iter().flat_map(|(_, items, _)| items);
                pushed.chain(s.buf.iter().cloned()).collect()
            };

            // A write that leaves a gap, and one that does not say where it
            // stands (a retry of it could not be told from a fresh write).
            let unsequenced = WriteRequest {
                seq: None,
                ..write(0, 0..3, false)
            };
            for refused in [write(2, 2..4, false), unsequenced] {
                let err = s.accept(&host, refused).unwrap_err();
                assert!(matches!(err, EdenError::BadParameter(_)), "{case}: {err}");
                assert_eq!((s.consumed, host.checkpoints()), (0, 0), "{case}");
            }

            s.accept(&host, write(0, 0..3, false)).unwrap();
            assert_eq!(s.consumed, 3, "{case}");
            // A re-send that overlaps two accepted records and carries two
            // fresh ones: only the fresh ones go through the transform, and
            // the output position moves once.
            s.accept(&host, write(1, 1..5, false)).unwrap();
            assert_eq!(s.consumed, 5, "{case}");
            assert_eq!(produced(&s, &host), doubled(0..5), "{case}");
            if active_out {
                let seqs: Vec<u64> = host.pushes().iter().map(|(seq, ..)| *seq).collect();
                assert_eq!((seqs, s.base), (vec![0, 3], 5), "{case}");
            }
            // Checkpoint precedes acknowledge: what the store holds when
            // the write returns is the state that was acknowledged.
            assert_eq!(reactivated(&host).state(), s.state(), "{case}");

            s.accept(&host, write(5, 5..6, true)).unwrap();
            assert!(s.in_end, "{case}");
            let closed = (s.state(), host.checkpoints(), host.pushes());

            // After the end: a record beyond the accepted position is
            // refused, alone or behind an overlap ...
            for late in [write(6, 6..7, false), write(5, 5..7, true)] {
                let err = s.accept(&host, late).unwrap_err();
                let want = EdenError::Application("write after end of stream".into());
                assert_eq!(err, want, "{case}");
            }
            // ... and a retry of the final write is acknowledged and
            // changes nothing.
            s.accept(&host, write(5, 5..6, true)).unwrap();
            assert_eq!(
                (s.state(), host.checkpoints(), host.pushes()),
                closed,
                "{case}"
            );
            assert_eq!(produced(&s, &host), doubled(0..6), "{case}");
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
            let mut s = stage(active_in, false);
            if !active_in {
                s.accept(&host, write(0, 0..8, true)).unwrap();
            }
            let read = |s: &mut RecoverableStage, pos: u64| {
                let reply = s.serve(&host, TransferRequest::primary(3).at(pos))?;
                let bytes = wire::encode(&reply);
                Batch::from_value(reply).map(|batch| (batch, bytes))
            };

            let (first, first_bytes) = read(&mut s, 0).unwrap();
            assert_eq!((first.items, first.end), (doubled(0..3), false), "{case}");
            // Unacknowledged, so a retry reads the same bytes again.
            assert_eq!(read(&mut s, 0).unwrap().1, first_bytes, "{case}");

            // Position 2 acknowledges exactly records 0 and 1.
            let (second, second_bytes) = read(&mut s, 2).unwrap();
            assert_eq!(second.items, doubled(2..5), "{case}");
            assert_eq!((s.base, s.buf.front()), (2, Some(&Value::Int(4))), "{case}");
            assert_eq!(reactivated(&host).base, 2, "{case}: the trim is durable");
            assert_eq!(read(&mut s, 2).unwrap().1, second_bytes, "{case}");

            // A position below what is retained, and no position at all
            // (it would acknowledge nothing and read this batch forever).
            let below = read(&mut s, 1).unwrap_err();
            let bare = s.serve(&host, TransferRequest::primary(3)).unwrap_err();
            for err in [below, bare] {
                assert!(matches!(err, EdenError::BadParameter(_)), "{case}: {err}");
                assert_eq!(s.base, 2, "{case}");
            }

            let (third, _) = read(&mut s, 5).unwrap();
            assert_eq!((third.items, third.end), (doubled(5..8), true), "{case}");
            // A reactivated stage serves the unacknowledged suffix as the
            // crashed one would have.
            let mut back = reactivated(&host);
            let (again, _) = read(&mut back, 5).unwrap();
            assert_eq!((again.items, again.end), (doubled(5..8), true), "{case}");
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
        let mut s = RecoverableStage::new("odd", &registry(), Some(Uid::fresh()), None, 3).unwrap();
        s.serve(&host, TransferRequest::primary(3).at(0)).unwrap();
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

    #[test]
    fn state_round_trips_through_a_checkpoint_for_every_pair_of_faces() {
        for (active_in, active_out) in [(false, false), (false, true), (true, false), (true, true)]
        {
            let case = format!("({active_in}, {active_out})");
            let host = Fake {
                upstream: ints(0..7),
                ..Fake::default()
            };
            // A stateful transform: its state is part of what round-trips.
            let peer = |active: bool| active.then(Uid::fresh);
            let (up, down) = (peer(active_in), peer(active_out));
            let mut s = RecoverableStage::new("sum", &registry(), up, down, 3).unwrap();
            // Put the stage mid-stream by whichever face drives it.
            match (active_in, active_out) {
                (false, _) => drop(s.accept(&host, write(0, 0..4, false)).unwrap()),
                (true, false) => drop(s.serve(&host, TransferRequest::primary(3).at(0)).unwrap()),
                (true, true) => assert!(s.work(&host).unwrap(), "{case}"),
            }
            assert!(s.consumed > 0 && !s.dirty, "{case}");
            let mut back = reactivated(&host);
            assert_eq!(back.state(), s.state(), "{case}");
            assert_eq!(
                (back.upstream, back.downstream),
                (s.upstream, s.downstream),
                "{case}"
            );
            assert!(back.recovered && !back.dirty, "{case}");
            // The rebuilt transform carries on from the input consumed so
            // far, not from zero.
            let seen: i64 = (0..s.consumed as i64).sum();
            back.absorb(vec![Value::Int(100)], false);
            assert_eq!(back.buf.back(), Some(&Value::Int(seen + 100)), "{case}");
        }
    }
}
