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
//! Two consequences of recovering from positions alone, neither of which
//! polls:
//!
//! * A passive output parks a reader it cannot serve yet, as a volatile one
//!   does. A crash abandons the parked reply as `EjectCrashed`, which is
//!   retryable: the reader's re-send reactivates the stage and says its
//!   position again, and what the stage served it keeps until a later
//!   position acknowledges it, so the repeat reads the same records.
//! * A stage its own process drives — a pushing source, a conventional
//!   pump — receives no stream invocations, so nothing would reactivate it.
//!   It says so (`EjectBehavior::drives_itself`), and the kernel reactivates
//!   it as it crashes; `activate` restarts the process from the checkpoint.
//!
//! A recoverable pipeline is a [`PipelineSpec`] made
//! [`retained`](PipelineSpec::retained): the one plan, built and run by the
//! one door. Its run ends on an event, not a poll: a read-only run pulls
//! the tail itself, and any other asks the acceptor to `Close` — parked
//! until the stream has ended there — and then reads it once with
//! [`READ_ALL`]. [`run_recoverable_pipeline`] and
//! [`resume_recoverable_pipeline`] are that door, by transform name.
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
//! [`TransferRequest::pos`]: crate::protocol::TransferRequest::pos

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_core::op::ops;
use eden_core::{EdenError, Result, Uid, Value};
use eden_kernel::{EjectBehavior, InvokeOptions, Kernel, RetryPolicy};

use crate::conform::DisciplineKind;
use crate::pipeline::{read_kept, Discipline, PipelineRun, PipelineSpec};
use crate::protocol::WriteRequest;
use crate::source::VecSource;
use crate::stage::{Buffer, Host, InFace, Input, Output, Stage};
use crate::transform::Transform;

/// The operation a retained pipeline's run reads its acceptor with — a
/// retained (passive, passive) stage it lets forget nothing: replies with a
/// [`Batch`](crate::protocol::Batch) of everything accepted from its
/// [`TransferRequest`](crate::protocol::TransferRequest)'s `pos` on
/// (no `pos`, or a `Unit` argument: from the start; any other argument is
/// refused), `end` set once the stream has closed. Keeping the output
/// *inside* the acceptor's stable state (rather than pushing it to an
/// external collector) lets the terminal stage recover exactly: records and
/// acknowledging position are one state.
pub const READ_ALL: &str = "ReadAll";

/// The one Eden type every retained stage is registered under.
pub(crate) const STAGE_TYPE: &str = "RecoverableStage";

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

/// Options for a run's own asks (the acceptor's `Close` and `ReadAll`, a
/// resumed stage's `Describe`): immune to the fault plan, so chaos
/// experiments perturb the stream itself, not the experiment's harness, and
/// asked again after each crash of the one asked, for as long as the run
/// has time.
pub(crate) fn control_opts() -> InvokeOptions<'static> {
    let again = RetryPolicy::retries(u32::MAX).max_delay(Duration::from_millis(1));
    InvokeOptions::new().immune().retry(again)
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
    /// Build a registry from `(name, constructor)` pairs, each under the
    /// name its transform reports ([`Transform::name`]): a retained spec
    /// looks its transforms up by it.
    pub fn new(entries: &[(&str, TransformFactory)]) -> TransformRegistry {
        TransformRegistry {
            map: Arc::new(entries.iter().map(|(n, f)| ((*n).to_owned(), *f)).collect()),
        }
    }

    /// The constructor of the transform named `name`; unknown names are an
    /// error.
    pub(crate) fn factory(&self, name: &str) -> Result<TransformFactory> {
        self.map.get(name).copied().ok_or_else(|| {
            EdenError::Application(format!(
                "no transform named `{name}` in the recovery registry"
            ))
        })
    }

    /// Construct a transform and put it in `state` (unit: a fresh one, or
    /// one with nothing worth saving). The empty name is the identity
    /// (pass-through) transform.
    pub(crate) fn build(&self, name: &str, state: &Value) -> Result<Option<Box<dyn Transform>>> {
        if name.is_empty() {
            return Ok(None);
        }
        let mut transform = self.factory(name)?();
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
    pub(crate) transform: String,
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
    pub(crate) moved: u64,
    /// An active output's batch out, as records and whether it ends the
    /// stream, until its acknowledgement is in (`stage::push`).
    pub(crate) sent: Option<(usize, bool)>,
}

impl Kept {
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

    /// The stage a checkpoint describes: a fresh one between its faces,
    /// its transform rebuilt by name in the state it held at `consumed` (so
    /// that the input replayed from there lands on the one that saw it), and
    /// the checkpoint's entry redone over it — what is left of a local
    /// supply included.
    pub(crate) fn reactivate(v: Value, registry: &TransformRegistry) -> Result<Stage> {
        // A UID is an active face's peer, unit a passive face.
        let peer = |name| match v.field(name)? {
            Value::Unit => Ok(None),
            peer => peer.as_uid().map(Some),
        };
        let input = match peer("upstream")? {
            Some(upstream) => Input::pull(upstream),
            None if v.field("local")?.as_bool()? => Input::Local(Box::new(VecSource::new(vec![]))),
            None => Input::Passive,
        };
        let output = peer("downstream")?.map_or(Output::Passive, Output::push);
        let name = v.field("transform")?.as_str()?;
        let transform = registry.build(name, v.field("transform_state")?)?;
        let batch = v.field("batch")?.as_int()?.max(1) as usize;
        let mut stage = Stage::retained(input, name, transform, output, batch);
        stage.redo(v)?;
        Ok(stage)
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
        // The checkpoint, the first entry redone, starts the count afresh.
        self.moved = match self.stored {
            Some(_) => self.moved + appended.len() as u64,
            None => 0,
        };
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
    /// one would re-send writes: `stage::push` marks the stage dirty.
    pub(crate) fn forget(&mut self, buf: &mut VecDeque<Value>, n: usize) {
        buf.drain(..n);
        self.base += n as u64;
        self.moved += n as u64;
    }
}

/// Register the reactivation constructor for retained stages. Must be
/// called (once per kernel) before any recoverable stage can come back from
/// a crash; `registry` must contain every transform the pipelines will
/// mount.
pub fn install_recovery(kernel: &Kernel, registry: &TransformRegistry) {
    let registry = registry.clone();
    kernel.register_type(STAGE_TYPE, move |state| match state {
        Some(v) => Ok(Box::new(Kept::reactivate(v, &registry)?)),
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
    let supply = Input::Local(Box::new(VecSource::new(items)));
    Box::new(Stage::retained(supply, "", None, Output::Passive, 1))
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
    let (input, output) = (Input::pull(upstream), Output::Passive);
    let built = registry.build(transform, &Value::Unit)?;
    Ok(Box::new(Stage::retained(
        input, transform, built, output, batch,
    )))
}

/// Which communication discipline a recoverable pipeline uses: any
/// [`DisciplineKind`], wired as [`PipelineSpec::retained`] plans it.
pub type RecoveryDiscipline = DisciplineKind;

/// Build and run a recoverable pipeline of `transforms` over `items`, each
/// built by name from `registry`, and wait (up to `timeout`) for the
/// complete output: the [`PipelineSpec`] made
/// [`retained`](PipelineSpec::retained) by `registry`, which
/// [`install_recovery`] gave the kernel too. The run rides out injected
/// faults and crashes of any stage; it fails only if the kernel shuts down,
/// a fatal (non-retryable) error surfaces, or `timeout` passes. The run's
/// `stages` are the Ejects it spawned, head first: chaos tests crash them.
pub fn run_recoverable_pipeline(
    kernel: &Kernel,
    discipline: RecoveryDiscipline,
    items: Vec<Value>,
    transforms: &[&str],
    registry: &TransformRegistry,
    batch: usize,
    timeout: Duration,
) -> Result<PipelineRun> {
    let discipline = match discipline {
        DisciplineKind::ReadOnly => Discipline::ReadOnly { read_ahead: 0 },
        DisciplineKind::WriteOnly => Discipline::WriteOnly { push_ahead: 0 },
        DisciplineKind::Conventional => Discipline::Conventional { buffer_capacity: 0 },
    };
    let mut spec = PipelineSpec::new(discipline).source_vec(items).batch(batch);
    for name in transforms {
        spec = spec.stage(registry.factory(name)?());
    }
    spec.retained(registry).build(kernel)?.run(timeout)
}

/// Resume a write-only or conventional pipeline on a **rebuilt kernel**,
/// over the durable store the old one left: `stages` is a run's, head first
/// (its last is the acceptor), each now a passive representation. Nothing
/// is respawned: each stage is invoked once — a `Describe`, which
/// reactivates it, and a pump's `activate` restarts its process from the
/// checkpointed positions — and the acceptor is read as a run reads it. The
/// sequence arithmetic absorbs the replayed window: what rides out one
/// stage's crash rides out losing the whole kernel. [`install_recovery`]
/// must have been called on the new kernel first.
pub fn resume_recoverable_pipeline(
    kernel: &Kernel,
    stages: &[Uid],
    timeout: Duration,
) -> Result<Vec<Value>> {
    let deadline = Instant::now() + timeout;
    let (&acceptor, rest) = stages
        .split_last()
        .ok_or_else(|| EdenError::Application("no stages to resume".into()))?;
    for &stage in rest {
        let woken = kernel.invoke_with(stage, ops::DESCRIBE, Value::Unit, control_opts());
        // eden-lint: timer(deadline)
        woken.wait_timeout(deadline.saturating_duration_since(Instant::now()))?;
    }
    read_kept(kernel, acceptor, None, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conform::{EdgeMode, NodeRole, WiringGraph};
    use crate::transform::{map_fn, Identity};

    const DISCIPLINES: [Discipline; 3] = [
        Discipline::ReadOnly { read_ahead: 0 },
        Discipline::WriteOnly { push_ahead: 0 },
        Discipline::Conventional { buffer_capacity: 0 },
    ];

    /// The graph a retained chain of `names` renders to.
    fn graph(discipline: Discipline, names: &[&'static str]) -> WiringGraph {
        let registry = TransformRegistry::new(&[]);
        let spec = names
            .iter()
            .fold(PipelineSpec::new(discipline), |spec, name| {
                spec.stage(Box::new(map_fn(name, |v| v)))
            });
        spec.source_vec(Vec::new())
            .retained(&registry)
            .graph()
            .unwrap()
    }

    #[test]
    fn recovery_wiring_conforms_in_every_discipline() {
        for discipline in DISCIPLINES {
            for chain in [&[][..], &["upcase"][..], &["upcase", "grep"][..]] {
                let violations = graph(discipline, chain).check();
                assert!(
                    violations.is_empty(),
                    "{discipline:?} over {chain:?}: {violations:?}"
                );
            }
        }
    }

    #[test]
    fn conventional_recovery_graph_pairs_pumps_with_buffers() {
        let graph = graph(DISCIPLINES[2], &["a", "b", "c"]);
        let count = |role| graph.nodes.values().filter(|r| **r == role).count();
        assert_eq!(count(NodeRole::Filter), 3);
        assert_eq!(count(NodeRole::Buffer), 2); // between consecutive pumps only
    }

    #[test]
    fn edge_modes_are_read_off_the_faces_that_meet() {
        let modes = |discipline| -> Vec<EdgeMode> {
            let graph = graph(discipline, &["a", "b"]);
            graph.edges.iter().map(|e| e.mode).collect()
        };
        use EdgeMode::{Pull, Push};
        assert_eq!(modes(DISCIPLINES[0]), [Pull, Pull, Pull]);
        assert_eq!(modes(DISCIPLINES[1]), [Push, Push, Push]);
        assert_eq!(modes(DISCIPLINES[2]), [Pull, Push, Pull, Push]);
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
