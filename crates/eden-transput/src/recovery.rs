//! Checkpoint-driven stream recovery: what a [`Stage`] keeps, so that a
//! pipeline survives fail-stop crashes of any stage without losing or
//! duplicating a record.
//!
//! §7 of the paper observes that an Eject which has checkpointed survives a
//! crash as its passive representation and is "automatically reactivated by
//! the Eden kernel when it is next invoked". Durability is orthogonal to
//! which side of a connection initiates, so it is a layer of the one stage,
//! not a second one: faces, step and process are `crate::stage`'s, and a
//! *retained* stage differs from a volatile one in three ingredients only.
//!
//! 1. **Positions on the wire.** Every `Transfer` carries the reader's
//!    absolute stream position ([`TransferRequest::pos`]) and every `Write`
//!    the absolute position of its first record ([`WriteRequest::seq`]).
//!    The position doubles as a cumulative acknowledgement — a producer
//!    forgets what lies below the highest position it has been asked for
//!    (its buffer starts at `base`), a receiver skips what lies below what it
//!    has accepted (`consumed`) and refuses a gap — so no second message,
//!    and no second crash window, is needed to acknowledge.
//! 2. **Checkpoint before acknowledge.** What a stage has *taken* (input
//!    consumed, transform state) or *made* (output buffered, pushed and
//!    acknowledged) goes to the [`StableStore`] *before* the stage replies,
//!    and before it sends a position that acknowledges its upstream, so the
//!    stable state never claims less than a peer has been told and a peer
//!    never discards what the stable state still needs. What it has been
//!    *allowed to forget* — the prefix a reader's position acknowledges —
//!    it forgets in memory and writes nothing for: the reader says its
//!    position again with every `Transfer`, so a stable state that still
//!    holds the prefix serves it the same bytes.
//! 3. **Retry against a reactivating kernel.** Stream invocations travel
//!    with a [`RetryPolicy`]; a retry of an invocation whose target crashed
//!    reactivates the target from its checkpoint (activation on invocation,
//!    §1), and the re-sent position makes the repeat idempotent.
//!
//! Together these give exactly-once delivery across repeated fail-stop
//! crashes, provided the mounted [`Transform`]s are **deterministic** (a
//! re-run of an unacknowledged input from the same state must reproduce
//! byte-identical output). A transform may be stateful: what
//! [`Transform::state`] reports is part of the checkpoint and is
//! [`restore`](Transform::restore)d into the transform the registry rebuilds
//! by name — at the price of a checkpoint that grows with it. Secondary
//! emission channels are not forwarded.
//!
//! Two consequences of recovering from positions alone:
//!
//! * A stage its own process drives receives no stream invocations, so a
//!   crashed one would stay passive forever; the driving loop "nudges" every
//!   stage with a fault-immune `Describe` while it waits, which reactivates
//!   any that have crashed, and `activate` restarts the process from the
//!   checkpoint.
//! * A passive output never parks a reader. An empty buffer replies with an
//!   empty non-final batch and the pump polls, because a parked reply would
//!   die with a crash anyway; polling against the checkpointed position is
//!   what recovery can prove correct.
//!
//! ## The checkpoint
//!
//! A checkpoint, and a journal of what changed since (`Kept::save`). What
//! changes is an *entry*: the input position `consumed` and `in_end`, the
//! output position `base` and `out_end`, and `appended`, the output the
//! stable state lacks. A checkpoint is what never changes — the transform's
//! registry name, the two faces (a peer's UID or unit, and whether a
//! faceless input is a drained local supply), the batch size — with the
//! transform's state and an entry carrying all of `buf`; a journal entry is
//! an entry alone, redone by draining `buf` to its `base` and extending it.
//! Each describes one instant, the last at which the stage took or made
//! something, so a reactivated stage is the crashed one as of then, with a
//! `base` at or before where its reader stands. The checkpoint is written
//! again once as many records have been journaled and forgotten as it would
//! now hold (a write costs what changed; the journal never outgrows what it
//! stands for), and every time if the transform has state. A passive
//! output's trims alone write nothing: they ride the next entry's `base`,
//! and a source's only write is its birth, with its whole supply.
//!
//! [`StableStore`]: eden_kernel::StableStore

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_core::op::ops;
use eden_core::{EdenError, Result, Uid, Value};
use eden_kernel::{EjectBehavior, InvokeOptions, Kernel, RetryPolicy};

use crate::conform::{DisciplineKind, Mode, NodeRole, WiringGraph};
use crate::pipeline::{Mount, Plan};
use crate::protocol::{Batch, TransferRequest, WriteRequest};
use crate::stage::{Buffer, Host, InFace, Stage};
use crate::transform::Transform;

/// The operation a [`run_recoverable_pipeline`] driver uses to read the
/// terminal acceptor — a retained (passive, passive) stage it lets forget
/// nothing: replies with a [`Batch`] of everything accepted from its
/// [`TransferRequest`]'s `pos` on (no `pos`, or a `Unit` argument: from the
/// start; any other argument is refused), `end` set once the stream has
/// closed. Keeping the output *inside* the acceptor's stable state (rather
/// than pushing it to an external collector) lets the terminal stage
/// recover exactly: records and acknowledging position are one state.
pub const READ_ALL: &str = "ReadAll";

/// The one Eden type every retained stage is registered under.
pub(crate) const STAGE_TYPE: &str = "RecoverableStage";

/// How long a retained stage's process pauses before it retries a step
/// that made no progress.
const POLL: Duration = Duration::from_millis(1);

/// A retained stage's pause, on its pool worker, before it carries on from
/// the same positions: a wait like its second and later retries' backoff.
pub(crate) fn pause() {
    // eden-lint: timer(recovery-poll)
    eden_kernel::blocking(|| std::thread::sleep(POLL));
}

/// The retry policy stream invocations travel with: the first re-send after
/// a fault (the one that reactivates a crashed peer) goes at once, later
/// ones back off from 1 ms, patient enough to ride out a run of faults.
pub(crate) fn stream_opts() -> InvokeOptions<'static> {
    InvokeOptions::new()
        .retry(
            RetryPolicy::retries(24)
                .base_delay(Duration::from_millis(1))
                .max_delay(Duration::from_millis(25)),
        )
        .deadline(Duration::from_secs(20))
}

/// Options for control-plane traffic (polling the acceptor, nudging
/// crashed stages): immune to the fault plan, so chaos
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

    /// Construct a transform and put it in `state` (unit: a fresh one, or
    /// one with nothing worth saving). The empty name is the identity
    /// (pass-through) transform; unknown names are an error.
    fn build(&self, name: &str, state: &Value) -> Result<Option<Box<dyn Transform>>> {
        if name.is_empty() {
            return Ok(None);
        }
        let Some(factory) = self.map.get(name) else {
            return Err(EdenError::Application(format!(
                "no transform named `{name}` in the recovery registry"
            )));
        };
        let mut transform = factory();
        if !matches!(state, Value::Unit) {
            transform.restore(state)?;
        }
        Ok(Some(transform))
    }
}

/// A passive face's refusal of a request that does not say where in the
/// stream it stands: served anyway, a retried `Write` would be applied twice
/// and a `Transfer` would acknowledge nothing and read one batch forever.
fn unpositioned(op: &str, field: &str) -> EdenError {
    EdenError::BadParameter(format!("a recoverable stage needs `{field}` on every {op}"))
}

/// What a retained [`Stage`] keeps beside its faces and its buffer: how to
/// rebuild it, and where in the stream each face stands.
#[derive(Debug, Default)]
pub(crate) struct Kept {
    /// The transform's registry name (empty = identity).
    transform: String,
    registry: TransformRegistry,
    /// `Some`: the input is active and pulls this Eject at `consumed`.
    /// `None`: it is passive and accepts `Write`s — or, with `local`, a
    /// local supply the buffer was loaded from whole, already closed.
    pub(crate) upstream: Option<Uid>,
    pub(crate) local: bool,
    /// `Some`: the output is active and pushes to this Eject at `base`.
    /// `None`: the output is passive and serves `Transfer`s.
    pub(crate) downstream: Option<Uid>,
    /// Records per pull and per push.
    pub(crate) batch: usize,
    /// Input records taken: the pull position of an active input, the next
    /// sequence number a passive one accepts.
    pub(crate) consumed: u64,
    /// Output records the downstream has acknowledged — by reading past
    /// them (passive output) or by replying to the `Write` that carried
    /// them (active output). The stream position of the buffer's first.
    pub(crate) base: u64,
    /// An active output has delivered end-of-stream and had it acknowledged.
    pub(crate) out_end: bool,
    /// The in-memory state is ahead of the stored one.
    pub(crate) dirty: bool,
    /// The output position the stored copy of `buf` reaches. `None`: unknown —
    /// not yet born, or the last write failed and may yet have landed.
    pub(crate) stored: Option<u64>,
    /// Records journaled and records forgotten since the last whole write.
    moved: u64,
}

impl Kept {
    /// The transform, rebuilt by name and put back in the state it held at
    /// `consumed`, so that the input replayed from that position lands on
    /// the transform that first saw it.
    pub(crate) fn transform(&self, state: &Value) -> Result<Option<Box<dyn Transform>>> {
        self.registry.build(&self.transform, state)
    }

    /// An entry (module docs) carrying the output from the `from`-th on.
    fn entry(&self, buffer: &Buffer, from: usize) -> Vec<(&'static str, Value)> {
        let appended: Vec<Value> = buffer.queues[0].range(from..).cloned().collect();
        vec![
            ("consumed", Value::Int(self.consumed as i64)),
            ("in_end", Value::Bool(buffer.ended)),
            ("base", Value::Int(self.base as i64)),
            ("out_end", Value::Bool(self.out_end)),
            ("appended", Value::list(appended)),
        ]
    }

    /// The checkpoint, around the state of the stage's transform.
    pub(crate) fn record(&self, transform_state: Option<Value>, buffer: &Buffer) -> Value {
        let peer = |p: Option<Uid>| p.map_or(Value::Unit, Value::Uid);
        let fixed = [
            ("transform", Value::str(self.transform.clone())),
            ("transform_state", transform_state.unwrap_or(Value::Unit)),
            ("upstream", peer(self.upstream)),
            ("local", Value::Bool(self.local)),
            ("downstream", peer(self.downstream)),
            ("batch", Value::Int(self.batch as i64)),
        ];
        Value::record(fixed.into_iter().chain(self.entry(buffer, 0)))
    }

    /// The stage a checkpoint describes: its entry, redone over nothing.
    pub(crate) fn reactivate(v: &Value, registry: &TransformRegistry) -> Result<Stage> {
        // A UID is an active face's peer, unit a passive face.
        let peer = |name| match v.field(name)? {
            Value::Unit => Ok(None),
            peer => peer.as_uid().map(Some),
        };
        let mut kept = Kept {
            transform: v.field("transform")?.as_str()?.to_owned(),
            registry: registry.clone(),
            upstream: peer("upstream")?,
            local: v.field("local")?.as_bool()?,
            downstream: peer("downstream")?,
            batch: v.field("batch")?.as_int()?.max(1) as usize,
            ..Kept::default()
        };
        let mut buf = VecDeque::new();
        let in_end = kept.redo(v, &mut buf)?;
        kept.moved = 0;
        Stage::retained(kept, buf, in_end, v.field("transform_state")?)
    }

    /// Apply an entry to the state the ones before it came to. Returns
    /// whether the input had ended.
    pub(crate) fn redo(&mut self, entry: &Value, buf: &mut VecDeque<Value>) -> Result<bool> {
        let uint = |name| Ok::<_, EdenError>(entry.field(name)?.as_int()?.max(0) as u64);
        (self.consumed, self.out_end) = (uint("consumed")?, entry.field("out_end")?.as_bool()?);
        let base = uint("base")?;
        self.forget(
            buf,
            (base.saturating_sub(self.base) as usize).min(buf.len()),
        );
        let appended = entry.field("appended")?.as_list()?;
        buf.extend(appended.iter().cloned());
        self.moved += appended.len() as u64;
        (self.base, self.stored) = (base, Some(base + buf.len() as u64));
        entry.field("in_end")?.as_bool()
    }

    /// Make durable what the stage has taken or made since the last write,
    /// if anything: the one place that chooses what that write carries
    /// (module docs) — and the checkpoint, if what is stored is unknown.
    pub(crate) fn save(&mut self, host: &impl Host, input: &InFace, buffer: &Buffer) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let held = buffer.queues[0].len();
        let end = self.base + held as u64;
        let state = input.transform.as_ref().and_then(|t| t.state());
        let fresh = self
            .stored
            .map(|stored| (end - stored.max(self.base)) as usize);
        let written = match fresh.filter(|n| state.is_none() && self.moved as usize + n < held) {
            Some(fresh) => {
                self.moved += fresh as u64;
                host.journal(&Value::record(self.entry(buffer, held - fresh)))
            }
            None => {
                self.moved = 0;
                host.checkpoint(&self.record(state, buffer))
            }
        };
        (self.stored, self.dirty) = (written.is_ok().then_some(end), written.is_err());
        written
    }

    /// A passive input's `Write` must say where it stands. Refuses one that
    /// would leave a gap, and drops from it the overlap of a re-sent batch
    /// (sequence arithmetic is the dedupe): a retried final write is all
    /// overlap and stays a no-op.
    pub(crate) fn sequence(&self, w: &mut WriteRequest) -> Result<()> {
        let seq = w.seq.ok_or_else(|| unpositioned("Write", "seq"))?;
        if seq > self.consumed {
            return Err(EdenError::BadParameter(format!(
                "write at {seq} leaves a gap after {}",
                self.consumed
            )));
        }
        let skip = ((self.consumed - seq) as usize).min(w.items.len());
        w.items.drain(..skip);
        Ok(())
    }

    /// A passive output's `Transfer` must say where it stands: the position
    /// acknowledges everything before it, which `buf` may now forget — so a
    /// reader retrying after a crash (its own, or this stage's) re-reads
    /// exactly what it missed. Forgetting forces no checkpoint (module docs,
    /// 2): the trim rides the next one that something taken or made does.
    pub(crate) fn acknowledge(
        &mut self,
        pos: Option<u64>,
        buf: &mut VecDeque<Value>,
    ) -> Result<()> {
        let pos = pos.ok_or_else(|| unpositioned("Transfer", "pos"))?;
        if pos < self.base {
            // The acknowledged prefix is gone; a position below it means
            // the reader rewound further than we retained.
            return Err(EdenError::BadParameter(format!(
                "position {pos} below retained base {}",
                self.base
            )));
        }
        self.forget(buf, ((pos - self.base) as usize).min(buf.len()));
        Ok(())
    }

    /// The downstream has acknowledged the first `n` records of `buf`. An
    /// active output's `base` is where it pushes next, so there a lagging
    /// one would re-send writes: `stage::retain` marks the stage dirty.
    pub(crate) fn forget(&mut self, buf: &mut VecDeque<Value>, n: usize) {
        buf.drain(..n);
        self.base += n as u64;
        self.moved += n as u64;
    }
}

/// A fresh retained stage running `transform` (empty = identity) between an
/// active face for each of `peers` (upstream, downstream) given and a
/// passive one for each `None`. With `items` it is a source: they are its
/// local supply, loaded into the buffer whole, and its input is closed.
pub(crate) fn fresh(
    transform: &str,
    registry: &TransformRegistry,
    (upstream, downstream): (Option<Uid>, Option<Uid>),
    batch: usize,
    items: Option<Vec<Value>>,
) -> Result<Stage> {
    let kept = Kept {
        transform: transform.to_owned(),
        registry: registry.clone(),
        upstream,
        local: items.is_some(),
        downstream,
        batch: batch.max(1),
        ..Kept::default()
    };
    let ended = kept.local;
    Stage::retained(kept, items.unwrap_or_default().into(), ended, &Value::Unit)
}

/// Register the reactivation constructor for retained stages. Must be
/// called (once per kernel) before any recoverable stage can come back from
/// a crash; `registry` must contain every transform the pipelines will
/// mount.
pub fn install_recovery(kernel: &Kernel, registry: &TransformRegistry) {
    let registry = registry.clone();
    kernel.register_type(STAGE_TYPE, move |state| match state {
        Some(v) => Ok(Box::new(Kept::reactivate(&v, &registry)?)),
        None => Err(EdenError::Application(
            "a recoverable stage needs a checkpoint".into(),
        )),
    });
}

/// A recoverable source over `items`, to be spawned by the caller: a stage
/// whose buffer is pre-loaded, whose input is closed and whose passive
/// output serves positional `Transfer`s — a read cursor that survives a
/// crash, or the whole kernel, on a kernel with [`install_recovery`] called.
/// The record list lives in the checkpoint, so a reactivated source
/// re-serves any unacknowledged suffix byte-for-byte.
pub fn recoverable_source(items: Vec<Value>) -> Box<dyn EjectBehavior> {
    let source = fresh(
        "",
        &TransformRegistry::default(),
        (None, None),
        1,
        Some(items),
    );
    Box::new(source.expect("the identity transform is in every registry"))
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
    let peers = (Some(upstream), None);
    Ok(Box::new(fresh(transform, registry, peers, batch, None)?))
}

/// Which communication discipline a recoverable pipeline uses: read-only
/// (the driver pulls the tail filter), write-only (the source pumps through
/// push filters into the acceptor) or conventional (pumps move records
/// between passive buffers — n+1 extra Ejects, 2n+2 invocations per batch,
/// §4's cost).
pub type RecoveryDiscipline = DisciplineKind;

/// The plan `discipline` needs to run `transforms`: a chain, head first.
///
/// A discipline is its filters' faces; the rest follows from joining each
/// active face to a passive one. A source is pulled where the filters pull
/// and pumps where they do not; filters that push need an acceptor to push
/// into, and where they do not the driver itself is the chain's active sink;
/// and where both faces are active a passive buffer sits between consecutive
/// filters — and a single identity pump still has to move the records when
/// there is no filter at all.
fn plan(discipline: RecoveryDiscipline, transforms: &[&str]) -> Plan {
    use Mode::{Active, Passive};
    use NodeRole::{Buffer, Filter, Sink, Source};
    let (input, output) = discipline.faces();
    let pumps = (input, output) == (Active, Active);
    let mut plan = Plan::new(WiringGraph::new(discipline), Vec::new());
    let (source, pipe) = ((Passive, input.peer()), (Passive, Passive));
    let mut prev = plan.add("source".into(), Source, source, Mount::Head(0), &[]);
    let filters = if pumps && transforms.is_empty() {
        &[""][..]
    } else {
        transforms
    };
    for (i, name) in filters.iter().enumerate() {
        if pumps && i > 0 {
            let label = format!("buf{}", i - 1);
            prev = plan.add(label, Buffer, pipe, Mount::Copy, &[(prev, None)]);
        }
        let kind = if pumps { "pump" } else { "stage" };
        let (shown, mount) = match name.is_empty() {
            true => ("copy", Mount::Copy),
            false => (*name, Mount::Filter(i)),
        };
        let label = format!("{kind}{i}:{shown}");
        prev = plan.add(label, Filter, (input, output), mount, &[(prev, None)]);
    }
    let (sink, faces, mount) = match output {
        Active => ("acceptor", pipe, Mount::Sink),
        Passive => ("driver", (Active, Passive), Mount::Driver),
    };
    plan.add(sink.into(), Sink, faces, mount, &[(prev, None)]);
    plan
}

/// Render the wiring [`run_recoverable_pipeline`] would spawn for this
/// discipline and transform chain, in the same [`WiringGraph`] form the
/// non-recoverable [`crate::pipeline::PipelineSpec`] uses. The driver
/// checks this graph before spawning anything, so a recoverable pipeline
/// that would violate its discipline's shape rules fails statically.
pub fn recovery_graph(discipline: RecoveryDiscipline, transforms: &[&str]) -> WiringGraph {
    plan(discipline, transforms).graph
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
    let plan = plan(discipline, transforms);
    let violations = plan.graph.check();
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

    let mut items = Some(items);
    let uids = plan.spawn(|i, uids| {
        // The rows are a chain, so the peer an active face holds is the
        // neighbour on that side. `None`: a passive face. `Some(None)`: a
        // peer not spawned yet.
        let row = &plan.rows[i];
        let upstream = (row.input == Mode::Active).then(|| uids[i - 1]);
        let downstream = (row.output == Mode::Active).then(|| uids[i + 1]);
        if upstream == Some(None) || downstream == Some(None) {
            return Ok(None);
        }
        let name = match row.mount {
            Mount::Filter(t) => transforms[t],
            _ => "",
        };
        let peers = (upstream.flatten(), downstream.flatten());
        let stage = fresh(name, registry, peers, batch, items.take_if(|_| i == 0))?;
        Ok(Some(Some(kernel.spawn(Box::new(stage))?)))
    })?;
    let stages: Vec<Uid> = uids.into_iter().flatten().collect();

    // A row more than was spawned: the driver is the chain's sink.
    let pull = (plan.rows.len() > stages.len()).then_some(batch.max(1));
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
/// pump's `activate` restarts its process from the checkpointed
/// positions, and the sequence arithmetic absorbs the replayed window — the
/// same machinery that rides out a single-stage crash rides out losing the
/// whole kernel.
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

/// Collect the stream from the last of `stages` until it closes, each read
/// from where the driver's own copy ends.
///
/// With `pull` (records per read) the chain has no acceptor and the driver
/// is its active sink: positional `Transfer`s, which are stream traffic and
/// ride out faults like any stage's. Otherwise the tail is the acceptor:
/// poll it with [`READ_ALL`], and each round nudge every other stage with a
/// fault-immune `Describe` so a crashed process-driven stage (which nobody
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
        let (op, max, how) = match pull {
            Some(max) => (ops::TRANSFER, max, stream_opts()),
            None => (READ_ALL, i64::MAX as usize, control_opts()),
        };
        let req = TransferRequest::primary(max).at(output.len() as u64);
        let pending = kernel.invoke_with(tail, op, req.to_value(), how);
        // eden-lint: timer(deadline)
        let batch = Batch::from_value(pending.wait_timeout(time_left(deadline)?)?)?;
        output.extend(batch.items);
        if batch.end {
            return Ok(output);
        }
        if pull.is_none() {
            for stage in nudge {
                // Reactivation-on-invocation is the point; the reply is not.
                // eden-lint: timer(deadline)
                let _ = kernel
                    .invoke_with(*stage, ops::DESCRIBE, Value::Unit, control_opts())
                    .wait_timeout(time_left(deadline)?);
            }
            // A retained passive output parks no reader: look again each round.
            // eden-lint: timer(recovery-poll)
            eden_kernel::blocking(|| std::thread::sleep(Duration::from_millis(2)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conform::EdgeMode;
    use crate::transform::Identity;

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

    #[test]
    fn a_transform_the_registry_lacks_fails_at_build_not_mid_stream() {
        let registry = TransformRegistry::new(&[("copy", || Box::new(Identity))]);
        let build = |name| recoverable_filter(name, &registry, Uid::fresh(), 2);
        assert!(build("copy").is_ok());
        let err = build("bogus").expect_err("no such transform");
        assert!(matches!(err, EdenError::Application(_)), "{err}");
    }
}
