//! Pipeline construction and measurement.
//!
//! One typed spec, three disciplines (§3–§5): the same source records and
//! the same [`Transform`] chain can be wired
//!
//! * **read-only** (Figure 2): source ← filters ← sink, the sink pumps;
//! * **write-only** (Figure 3): source → filters → acceptor, the source
//!   pumps;
//! * **conventional** (Figure 1): active filters glued with passive buffer
//!   Ejects, both ends pumping.
//!
//! A discipline is nothing but the faces of its filters
//! ([`DisciplineKind::faces`]); the rest follows from joining each active
//! face to a passive one, and [`PipelineSpec`] works that out once, as a
//! *plan*: one row per [`Stage`] with its faces and what it mounts, and the
//! graph they make. [`PipelineSpec::graph`] hands that graph to the static
//! predicates ([`conform::check`]); [`PipelineSpec::build`] checks it, then
//! spawns the rows — a spec that violates its discipline never spawns an
//! Eject, and the graph that was checked is the wiring that runs.
//! [`Pipeline::run`] executes to end-of-stream and returns a
//! [`PipelineRun`] with the output, the metered event counts for the data
//! phase, and wall-clock time — the raw material for every experiment in
//! `EXPERIMENTS.md`.
//!
//! [`conform::check`]: crate::conform::check

use std::time::{Duration, Instant};

use eden_core::op::ops;
use eden_core::{EdenError, MetricsSnapshot, Result, Uid, Value};
use eden_kernel::{Kernel, NodeId};

use crate::channels::ChannelPolicy;
use crate::collector::Collector;
use crate::conform::{DisciplineKind, EdgeMode, GrantPolicy, Mode, NodeRole, WiringGraph};
use crate::ports::{FanInMode, InputPort, OutputPort, OutputWiring};
use crate::protocol::{ChannelId, GetChannelRequest, OUTPUT_NAME};
use crate::source::{PullSource, VecSource};
use crate::stage::{Input, Output, Stage, StageConfig};
use crate::stdio::{Program, TransputWriter};
use crate::transform::Transform;

/// Which communication discipline to wire the pipeline in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Active input + passive output; the sink pumps (Figure 2).
    ReadOnly {
        /// Records each filter pre-pulls (0 = fully lazy).
        read_ahead: usize,
    },
    /// Passive input + active output; the source pumps (Figure 3).
    WriteOnly {
        /// Depth of each filter's forwarding buffer (0 = rendezvous).
        push_ahead: usize,
    },
    /// Active both ways with interposed passive buffers (Figure 1).
    Conventional {
        /// Record capacity of each passive buffer Eject.
        buffer_capacity: usize,
    },
}

impl Discipline {
    /// A short label for tables.
    pub fn label(&self) -> &'static str {
        self.kind().label()
    }

    /// The discipline's identity, stripped of tuning knobs — what the
    /// static conformance predicates key on.
    pub fn kind(&self) -> DisciplineKind {
        match self {
            Discipline::ReadOnly { .. } => DisciplineKind::ReadOnly,
            Discipline::WriteOnly { .. } => DisciplineKind::WriteOnly,
            Discipline::Conventional { .. } => DisciplineKind::Conventional,
        }
    }

    /// The tuning knob: the [`StageConfig::depth`] of each filter, or of
    /// each passive buffer where the filters need those.
    fn depth(&self) -> usize {
        match *self {
            Discipline::ReadOnly { read_ahead: depth }
            | Discipline::WriteOnly { push_ahead: depth }
            | Discipline::Conventional {
                buffer_capacity: depth,
            } => depth,
        }
    }
}

/// A tap on a filter's secondary output channel (a report stream, §5).
#[derive(Debug)]
struct ReportTap {
    stage: usize,
    channel: String,
    collector: Collector,
}

/// One of the places the pipeline's records come from.
#[derive(Debug)]
enum Head {
    /// A local record supply; the builder spawns the source Eject.
    Supply(Box<dyn PullSource>),
    /// An existing Eject that answers `Transfer` (a file reader, a
    /// directory listing, another pipeline's tail...). §4: "any Eject
    /// which responds to *Read* invocations is by definition a source."
    Eject(InputPort),
    /// An imperative program writing records (§4's standard IO module).
    Program(Program<TransputWriter>),
}

/// The graph-label for an input port's channel.
fn channel_label(id: &ChannelId) -> String {
    match id {
        ChannelId::Number(0) => OUTPUT_NAME.to_owned(),
        ChannelId::Number(n) => format!("#{n}"),
        ChannelId::Cap(uid) => format!("cap:{uid}"),
    }
}

/// A kernel-free description of a linear pipeline with optional report
/// taps: what to wire, in which discipline, with which knobs.
///
/// The spec is the unit of static analysis — [`graph`](Self::graph)
/// renders it as a [`WiringGraph`] for the conformance predicates, and
/// [`build`](Self::build) instantiates it on a kernel only after
/// [`validate`](Self::validate) passes.
#[derive(Debug)]
pub struct PipelineSpec {
    discipline: Discipline,
    batch: usize,
    batch_max: usize,
    policy: ChannelPolicy,
    /// Where the records come from; several heads are merged by a fan-in
    /// filter (§5), in the mode `merge` gives.
    heads: Vec<Head>,
    merge: Option<FanInMode>,
    stages: Vec<Box<dyn Transform>>,
    taps: Vec<ReportTap>,
    nodes: Option<u16>,
    keep_output: bool,
    write_window: usize,
}

impl PipelineSpec {
    /// Start describing a pipeline in `discipline`.
    pub fn new(discipline: Discipline) -> PipelineSpec {
        PipelineSpec {
            discipline,
            batch: 16,
            batch_max: 0,
            policy: ChannelPolicy::Integer,
            heads: Vec::new(),
            merge: None,
            stages: Vec::new(),
            taps: Vec::new(),
            nodes: None,
            keep_output: true,
            write_window: 1,
        }
    }

    fn heads(mut self, heads: Vec<Head>, merge: Option<FanInMode>) -> Self {
        (self.heads, self.merge) = (heads, merge);
        self
    }

    /// Use an arbitrary record source.
    pub fn source(self, source: Box<dyn PullSource>) -> Self {
        self.heads(vec![Head::Supply(source)], None)
    }

    /// Use a vector of records as the source.
    pub fn source_vec(self, items: Vec<Value>) -> Self {
        self.source(Box::new(VecSource::new(items)))
    }

    /// Read from an *existing* Eject's primary channel — a file reader, a
    /// directory listing, anything answering `Transfer`. In the read-only
    /// discipline the first filter pulls it directly; in source-pumped
    /// disciplines the builder interposes an identity pump that starts with
    /// `run` (no `Start` invocation).
    pub fn source_eject(self, uid: Uid) -> Self {
        self.heads(vec![Head::Eject(InputPort::primary(uid))], None)
    }

    /// Merge several local supplies through a fan-in filter (§5: "if F
    /// needs n inputs, it maintains n UIDs"). `Concatenate` reads them in
    /// order like `cat a b`; `RoundRobin` interleaves; `Zip` emits tuples.
    pub fn source_merge(self, sources: Vec<Box<dyn PullSource>>, mode: FanInMode) -> Self {
        self.heads(sources.into_iter().map(Head::Supply).collect(), Some(mode))
    }

    /// Merge several existing Ejects' streams through a fan-in filter.
    pub fn source_ejects_merged(self, ports: Vec<InputPort>, mode: FanInMode) -> Self {
        self.heads(ports.into_iter().map(Head::Eject).collect(), Some(mode))
    }

    /// Use an ordinary imperative program as the source: §4's "standard IO
    /// module" — the closure writes records conventionally while the Eject
    /// performs passive output.
    pub fn source_program<F>(self, program: F) -> Self
    where
        F: FnOnce(TransputWriter) + Send + 'static,
    {
        self.heads(vec![Head::Program(Program::new(program))], None)
    }

    /// Append a filter stage.
    pub fn stage(mut self, transform: Box<dyn Transform>) -> Self {
        self.stages.push(transform);
        self
    }

    /// Records per Transfer/Write (the batching knob of experiment E7).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Let every connection adapt its records-per-invocation between
    /// [`batch`](Self::batch) and `max`: starved consumers and saturated
    /// write windows grow the batch; overshoot shrinks it back. `max` at
    /// or below `batch` keeps batches fixed (the default).
    pub fn adaptive_batch(mut self, max: usize) -> Self {
        self.batch_max = max;
        self
    }

    /// Channel identifier policy for read-only filters (§5).
    pub fn policy(mut self, policy: ChannelPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Distribute the pipeline's Ejects round-robin over `n` simulated
    /// nodes (the paper's VAXen).
    pub fn over_nodes(mut self, n: u16) -> Self {
        self.nodes = Some(n.max(1));
        self
    }

    /// Discard output records (null sink) — keeps benchmarks allocation-flat.
    pub fn null_sink(mut self) -> Self {
        self.keep_output = false;
        self
    }

    /// Keep up to `w` writes in flight from a source-pumped pipeline's
    /// pump (write-only / conventional disciplines with a local source).
    /// 1 = synchronous rendezvous (the default).
    pub fn write_window(mut self, w: usize) -> Self {
        self.write_window = w.max(1);
        self
    }

    /// Tap stage `stage`'s secondary channel `channel` into its own
    /// collector (e.g. the report window of Figures 3 and 4).
    pub fn tap(mut self, stage: usize, channel: &str) -> Self {
        self.taps.push(ReportTap {
            stage,
            channel: channel.to_owned(),
            collector: Collector::new(),
        });
        self
    }

    /// Work out the plan: every stage the pipeline needs, head first,
    /// from the faces of the discipline's filters. A source answers reads
    /// where the chain reads and pumps where it does not; merges become a
    /// fan-in filter; a head that can only answer reads gets an identity
    /// pump where the chain only answers writes; filters active on both
    /// faces get a passive buffer on either side (Figure 1: n filters need
    /// n+1); and the sink takes whichever face corresponds to the tail.
    /// The plan carries the wiring graph it renders to: one node per row,
    /// one edge per pair of faces that meet, its mode read off the two.
    fn plan(&self) -> Result<Plan> {
        use Mode::{Active, Passive};
        use NodeRole::{Buffer, Filter, Sink, Source};
        if self.heads.is_empty() {
            let what = match self.merge {
                Some(_) => "merged source needs at least one input",
                None => "pipeline needs a source",
            };
            return Err(EdenError::BadParameter(what.into()));
        }
        let faces = self.discipline.kind().faces();
        let buffered = faces == (Active, Active);
        let pipe = (Passive, Passive);
        // The face the head of the chain has to correspond to.
        let first = if buffered { Passive } else { faces.0 };
        let mut graph = WiringGraph::new(self.discipline.kind());
        if self.policy == ChannelPolicy::Capability {
            graph = graph.policy(GrantPolicy::Capability);
        }
        let taps = self.taps.iter().map(|tap| tap.channel.clone());
        let mut plan = Plan::new(graph, taps.collect());
        let mut heads = Vec::with_capacity(self.heads.len());
        for (i, head) in self.heads.iter().enumerate() {
            let (label, mount) = match head {
                Head::Eject(port) => (format!("eject:{}", port.uid), Mount::Eject(*port)),
                Head::Program(_) => ("source:program".into(), Mount::Head(i)),
                Head::Supply(_) if self.merge.is_some() => (format!("source[{i}]"), Mount::Head(i)),
                Head::Supply(_) => ("source".into(), Mount::Head(i)),
            };
            // A lone local supply pumps where the chain does not read.
            let lone = matches!(head, Head::Supply(_)) && self.merge.is_none();
            let faces = if lone { (Passive, first.peer()) } else { pipe };
            heads.push((plan.add(label, Source, faces, mount, &[]), None));
        }
        let mut prev = heads[0].0;
        if let Some(mode) = self.merge {
            // The merge filter *pulls* its inputs whatever the pipeline's
            // discipline — that pull wiring is the §5 workaround making
            // fan-in legal even in a write-only pipeline.
            let lazy = (Active, Passive);
            prev = plan.add("merge".into(), Filter, lazy, Mount::Merge(mode), &heads);
        }
        if plan.rows[prev].output == first {
            // Two passive faces: nothing would move the records. An
            // identity pump reads the head and writes the chain. (A
            // read-only chain pulls such a head directly.)
            let both = (Active, Active);
            prev = plan.add("pump".into(), Filter, both, Mount::Copy, &[(prev, None)]);
        }
        if buffered {
            prev = plan.add("buf0".into(), Buffer, pipe, Mount::Copy, &[(prev, None)]);
        }
        for (i, transform) in self.stages.iter().enumerate() {
            let label = format!("stage{i}:{}", transform.name());
            let stage = plan.add(label, Filter, faces, Mount::Filter(i), &[(prev, None)]);
            prev = stage;
            if buffered {
                let label = format!("buf{}", i + 1);
                prev = plan.add(label, Buffer, pipe, Mount::Copy, &[(stage, None)]);
            }
            // A report stream (§5) is one more reader where the stage's
            // output is passive (Figure 4), one more destination where it
            // is active (Figure 3) — and needs its own pipe and reader where
            // the filters need pipes.
            let taps = self.taps.iter().enumerate();
            for (t, tap) in taps.filter(|(_, tap)| tap.stage == i) {
                let mut from = (stage, Some(t));
                if buffered {
                    let label = format!("tapbuf{i}:{}", tap.channel);
                    from = (plan.add(label, Buffer, pipe, Mount::Copy, &[from]), None);
                }
                let faces = (plan.rows[from.0].output.peer(), Passive);
                let label = format!("tap{i}:{}", tap.channel);
                plan.add(label, Sink, faces, Mount::Tap(t), &[from]);
            }
        }
        let faces = (plan.rows[prev].output.peer(), Passive);
        plan.add("sink".into(), Sink, faces, Mount::Sink, &[(prev, None)]);
        // Under the capability channel policy every edge carries a grant,
        // because the wirer itself performs the §5 `GetChannel` handshake
        // for each connection it makes.
        if plan.graph.policy == GrantPolicy::Capability {
            plan.graph.grant_all_edges();
        }
        Ok(plan)
    }

    /// Render the spec as a wiring graph for the conformance predicates:
    /// the graph of the plan [`build`](Self::build) spawns — merge filters,
    /// identity pumps, tap sinks and conventional buffers included.
    pub fn graph(&self) -> Result<WiringGraph> {
        Ok(self.plan()?.graph)
    }

    /// Check the spec without touching a kernel: a source is present,
    /// every tap names a declared secondary channel of a real stage, and
    /// the wiring graph satisfies its discipline's predicates.
    pub fn validate(&self) -> Result<()> {
        self.check(&self.plan()?.graph)
    }

    fn check(&self, graph: &WiringGraph) -> Result<()> {
        // Validate taps up front: in the source-pumped disciplines an
        // unattached tap would otherwise stall `run` until its deadline.
        for tap in &self.taps {
            if tap.stage >= self.stages.len() {
                return Err(EdenError::BadParameter(format!(
                    "tap names stage {} but the pipeline has {} stage(s)",
                    tap.stage,
                    self.stages.len()
                )));
            }
            let declared = self.stages[tap.stage].secondary_channels();
            if !declared.iter().any(|c| *c == tap.channel) {
                return Err(EdenError::NoSuchChannel(format!(
                    "stage {} (`{}`) declares no channel named `{}`",
                    tap.stage,
                    self.stages[tap.stage].name(),
                    tap.channel
                )));
            }
        }
        let violations = graph.check();
        if !violations.is_empty() {
            let list: Vec<String> = violations.iter().map(ToString::to_string).collect();
            return Err(EdenError::Discipline(list.join("; ")));
        }
        Ok(())
    }

    /// Spawn the plan on `kernel`, once the graph it renders to has been
    /// checked: what runs is what was validated. Every Eject somebody holds
    /// the UID of spawns now; the ones that pump unasked spawn with `run`, so
    /// no data flows yet.
    pub fn build(mut self, kernel: &Kernel) -> Result<Pipeline> {
        use Mode::{Active, Passive};
        let plan = self.plan()?;
        self.check(&plan.graph)?;
        // One trace per pipeline: everything wired or spawned from here on
        // (including pump workers, which inherit the ambient span of the
        // thread that spawned their Eject) parents under this root, so the
        // whole run reconstructs as a single causal tree.
        let trace = eden_core::span::SpanContext::root();
        let _ambient = eden_core::span::enter(Some(trace));
        let discipline = self.discipline;
        let collector = match self.keep_output {
            true => Collector::new(),
            false => Collector::null(),
        };
        let heads = std::mem::take(&mut self.heads);
        let mut heads: Vec<_> = heads.into_iter().map(Some).collect();
        let stages = std::mem::take(&mut self.stages);
        let mut transforms: Vec<_> = stages.into_iter().map(Some).collect();
        // Ejects are placed round-robin over the simulated nodes, in the
        // order they are made; `deferred` ones spawn in `run()`.
        let (mut ejects, mut deferred, mut made) = (Vec::new(), Vec::new(), 0u16);
        let mut start_target = None;
        plan.spawn(|i, uids| {
            let row = &plan.rows[i];
            // The peers an active face holds; a missing one puts the row
            // off to a later sweep.
            let output = match (row.mount, row.output) {
                (Mount::Sink, _) => Output::Collector(collector.clone()),
                (Mount::Tap(t), _) => Output::Collector(self.taps[t].collector.clone()),
                (_, Passive) => Output::Passive,
                (_, Active) => match self.wiring_of(&plan.edges, i, uids) {
                    Some(wiring) => Output::Active(wiring),
                    None => return Ok(None),
                },
            };
            let ports = match row.input {
                Active => match self.ports_of(&plan.rows, &plan.edges, i, uids, kernel) {
                    Some(ports) => Some(ports?),
                    None => return Ok(None),
                },
                Passive => None,
            };
            let head = match row.mount {
                Mount::Head(h) => heads[h].take(),
                _ => None,
            };
            let input = match (head, ports, row.mount) {
                (Some(Head::Supply(supply)), ..) => Input::Local(supply),
                (Some(Head::Program(program)), ..) => Input::Program(program),
                (_, None, _) => Input::Passive,
                (_, Some(ports), Mount::Merge(mode)) => Input::ports(ports, mode),
                (_, Some(ports), _) => Input::ports(ports, FanInMode::Concatenate),
            };
            let transform = match row.mount {
                Mount::Filter(t) => transforms[t].take(),
                _ => None,
            };
            let stage = self.mount(row, input, transform, output);
            let node = self.nodes.map(|n| NodeId(made % n));
            made = made.wrapping_add(1);
            let sink = matches!(row.mount, Mount::Sink | Mount::Tap(_));
            if row.input == Active && (sink || row.output == Active) {
                // A stage that pumps on its own — the sink of a read-only
                // pipeline, every filter and sink of a conventional one —
                // spawns in `run()`: attaching it is "starting the pump"
                // (§4), so nothing flows at build time, and nobody holds its
                // UID to miss it by. Deferring it past the metrics baseline
                // keeps every data-phase invocation inside the measured
                // window, so the analytic n+1 and 2n+2 counts hold exactly.
                deferred.push((node, stage));
                return Ok(Some(None));
            }
            let uid = match node {
                Some(node) => kernel.spawn_on(node, Box::new(stage))?,
                None => kernel.spawn(Box::new(stage))?,
            };
            ejects.push(uid);
            if matches!(row.mount, Mount::Head(_)) && row.output == Active {
                start_target = Some(uid);
            }
            Ok(Some(Some(uid)))
        })?;
        let baseline = kernel.metrics().snapshot();
        Ok(Pipeline {
            kernel: kernel.clone(),
            discipline,
            ejects,
            pumps: deferred,
            start_target,
            collector,
            taps: self.taps,
            baseline,
            trace,
        })
    }

    /// The stage row `row` mounts between `input` and `output`.
    fn mount(
        &self,
        row: &Row,
        input: Input,
        transform: Option<Box<dyn Transform>>,
        output: Output,
    ) -> Stage {
        let depth = self.discipline.depth();
        let pumps = (row.input, row.output) == (Mode::Active, Mode::Active);
        let starts = matches!(row.mount, Mount::Head(_)) && row.output == Mode::Active;
        // The dial opens where one end of the stage waits on a peer's pace;
        // report windows and stages that pump on both faces move fixed
        // batches.
        let fixed = pumps || matches!(row.mount, Mount::Tap(_));
        let config = StageConfig {
            batch_max: if fixed { 0 } else { self.batch_max },
            depth: match (row.mount, row.role) {
                (Mount::Filter(_), _) if !pumps => depth,
                (_, NodeRole::Buffer) => depth,
                _ => 0,
            },
            policy: match row.mount {
                Mount::Filter(_) => self.policy,
                _ => ChannelPolicy::Integer,
            },
            window: if starts { self.write_window } else { 1 },
            ..StageConfig::batch(self.batch)
        };
        Stage::assemble(input, transform, output, config)
    }

    /// The name of the channel an edge runs on: the primary, or a tap's.
    fn channel(&self, tap: Option<usize>) -> &str {
        tap.map_or(OUTPUT_NAME, |t| &self.taps[t].channel)
    }

    /// The wiring of row `i`'s active output: the rows it feeds, each on
    /// the channel it feeds it by. `None` while one is yet to be spawned.
    fn wiring_of(&self, edges: &[Edge], i: usize, uids: &[Option<Uid>]) -> Option<OutputWiring> {
        let mut wiring = OutputWiring::default();
        for &(_, to, tap) in edges.iter().filter(|(from, ..)| *from == i) {
            wiring.add(self.channel(tap), OutputPort::primary(uids[to]?));
        }
        Some(wiring)
    }

    /// The ports of row `i`'s active input: the rows that feed it, each
    /// with the identifier of the channel it is read on. `None` while one
    /// is yet to be spawned.
    fn ports_of(
        &self,
        rows: &[Row],
        edges: &[Edge],
        i: usize,
        uids: &[Option<Uid>],
        kernel: &Kernel,
    ) -> Option<Result<Vec<InputPort>>> {
        let feeds = || edges.iter().filter(|(_, to, _)| *to == i);
        if feeds().any(|(from, ..)| uids[*from].is_none()) {
            return None;
        }
        let port = |&(from, _, tap): &Edge| {
            let uid = uids[from].expect("checked above");
            let by_name = self.policy == ChannelPolicy::Capability || tap.is_some();
            let channel = match rows[from].mount {
                Mount::Eject(port) => port.channel,
                // Sources, merges and pipes number their one channel. A
                // filter may mint capabilities, and only it knows where a
                // secondary channel sits: ask — the §5 connection protocol.
                Mount::Filter(_) if by_name => {
                    let name = self.channel(tap).to_owned();
                    let ask = GetChannelRequest { name }.to_value();
                    ChannelId::try_from(&kernel.invoke(uid, ops::GET_CHANNEL, ask).wait()?)?
                }
                _ => ChannelId::output(),
            };
            Ok(InputPort { uid, channel })
        };
        Some(feeds().map(port).collect())
    }
}

/// What a row of the plan mounts between its faces.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mount {
    /// The spec's `i`-th head: a local supply, or the imperative program
    /// behind §4's standard IO module.
    Head(usize),
    /// An Eject that exists already: nothing is spawned, the row stands
    /// for it.
    Eject(InputPort),
    /// Nothing, over several inputs: the fan-in filter of §5.
    Merge(FanInMode),
    /// The spec's `i`-th transform.
    Filter(usize),
    /// Nothing: an identity pump or a passive buffer.
    Copy,
    /// The output collector.
    Sink,
    /// The `t`-th tap's collector (a report window).
    Tap(usize),
    /// The caller itself, as the sink that pumps a recoverable read-only
    /// chain: nothing is spawned.
    Driver,
}

/// One row of the plan: a stage's name in the graph, its role, its faces
/// and what it mounts.
#[derive(Debug)]
pub(crate) struct Row {
    label: String,
    role: NodeRole,
    pub(crate) input: Mode,
    pub(crate) output: Mode,
    pub(crate) mount: Mount,
}

/// `(from, to, tap)`: two rows whose faces meet, on a tap's channel or the primary.
type Edge = (usize, usize, Option<usize>);

/// The plan: rows head first, the edges between them (a row is fed only
/// by earlier rows), the taps' channels, and the wiring graph they render to.
#[derive(Debug)]
pub(crate) struct Plan {
    pub(crate) rows: Vec<Row>,
    edges: Vec<Edge>,
    taps: Vec<String>,
    pub(crate) graph: WiringGraph,
}

impl Plan {
    /// An empty plan, to render into `graph`.
    pub(crate) fn new(graph: WiringGraph, taps: Vec<String>) -> Plan {
        Plan {
            rows: Vec::new(),
            edges: Vec::new(),
            taps,
            graph,
        }
    }

    /// Append a row fed by `feeds` (row, tap); returns its index.
    pub(crate) fn add(
        &mut self,
        label: String,
        role: NodeRole,
        (input, output): (Mode, Mode),
        mount: Mount,
        feeds: &[(usize, Option<usize>)],
    ) -> usize {
        let to = self.rows.len();
        self.graph.node(&label, role);
        for &(from, tap) in feeds {
            let channel = match (self.rows[from].mount, tap) {
                (Mount::Eject(port), _) => channel_label(&port.channel),
                (_, Some(t)) => self.taps[t].clone(),
                (_, None) => OUTPUT_NAME.to_owned(),
            };
            let from = &self.rows[from];
            let mode = EdgeMode::between(from.output, input);
            self.graph.edge_mode(&from.label, channel, &label, mode);
        }
        self.edges
            .extend(feeds.iter().map(|&(from, tap)| (from, to, tap)));
        self.rows.push(Row {
            label,
            role,
            input,
            output,
            mount,
        });
        to
    }

    /// Place every row that is not there already. An active face holds its
    /// peer's UID, so the peer is spawned first: sweep the plan, head to
    /// tail and back, and let `place` make each row whose peers exist — it
    /// answers with the UID the row is now addressed by (none for a row
    /// that runs later), or `None` to be asked again on a later sweep.
    /// Checked wiring never joins two active faces, so each sweep places at
    /// least one row.
    pub(crate) fn spawn(
        &self,
        mut place: impl FnMut(usize, &[Option<Uid>]) -> Result<Option<Option<Uid>>>,
    ) -> Result<Vec<Option<Uid>>> {
        let external = |row: &Row| match row.mount {
            Mount::Eject(port) => Some(port.uid),
            _ => None,
        };
        let mut uids: Vec<Option<Uid>> = self.rows.iter().map(external).collect();
        let there = |row: &Row| matches!(row.mount, Mount::Eject(_) | Mount::Driver);
        let mut placed: Vec<bool> = self.rows.iter().map(there).collect();
        while placed.contains(&false) {
            let before = placed.clone();
            for i in (0..placed.len()).chain((0..placed.len()).rev()) {
                if !placed[i] {
                    if let Some(uid) = place(i, &uids)? {
                        (placed[i], uids[i]) = (true, uid);
                    }
                }
            }
            assert!(placed != before, "two active faces meet");
        }
        Ok(uids)
    }
}

/// A wired pipeline, ready to run.
#[derive(Debug)]
pub struct Pipeline {
    kernel: Kernel,
    discipline: Discipline,
    ejects: Vec<Uid>,
    /// The stages that pump unasked, spawned in `run()` so they start after
    /// the metrics baseline (and so that truly nothing flows at build time).
    pumps: Vec<(Option<NodeId>, Stage)>,
    /// `Start` target for source-pumped disciplines.
    start_target: Option<Uid>,
    collector: Collector,
    taps: Vec<ReportTap>,
    baseline: MetricsSnapshot,
    /// The root span of the pipeline's trace; `run` re-enters it so the
    /// data phase joins the tree the build started.
    trace: eden_core::span::SpanContext,
}

impl Pipeline {
    /// The UIDs of every Eject in the pipeline (entity count).
    pub fn ejects(&self) -> &[Uid] {
        &self.ejects
    }

    /// The discipline this pipeline was wired in.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// The output collector (for observing progress mid-run).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Run to end-of-stream, tear the Ejects down, and report.
    pub fn run(mut self, deadline: Duration) -> Result<PipelineRun> {
        let start = Instant::now();
        // The data phase belongs to the trace the build started: the sink
        // spawns and the Start invocation below happen under the root span.
        // The guard is dropped before teardown so the Deactivate sweep does
        // not pollute the tree.
        let ambient = eden_core::span::enter(Some(self.trace));
        for (node, stage) in self.pumps.drain(..) {
            let uid = match node {
                Some(n) => self.kernel.spawn_on(n, Box::new(stage))?,
                None => self.kernel.spawn(Box::new(stage))?,
            };
            self.ejects.push(uid);
        }
        if let Some(target) = self.start_target {
            // Fire the pump; its deferred reply resolves when the source
            // has pushed end-of-stream all the way in, but completion is
            // judged by the sink's collector.
            let _pending = self.kernel.invoke(target, "Start", Value::Unit);
        }
        let output = self.collector.wait_done(deadline)?;
        // Report streams end when their filter flushes, which has happened
        // by now — but their sink Ejects drain concurrently, so wait for
        // each to observe end-of-stream before reading the windows.
        let mut reports = Vec::with_capacity(self.taps.len());
        for t in &self.taps {
            let remaining = deadline
                .saturating_sub(start.elapsed())
                .max(Duration::from_secs(1));
            let items = t.collector.wait_done(remaining)?;
            reports.push(((t.stage, t.channel.clone()), items));
        }
        let wall = start.elapsed();
        let metrics = self.kernel.metrics().snapshot().since(&self.baseline);
        let entities = self.ejects.len();
        drop(ambient);
        self.teardown(Duration::from_secs(10));
        Ok(PipelineRun {
            records_out: output.len() as u64,
            output,
            metrics,
            wall,
            entities,
            reports,
            trace: self.trace.trace,
        })
    }

    /// Deactivate every Eject and wait on their death latches until they are
    /// gone. Called by `run`, and useful directly when a pipeline is abandoned.
    pub fn teardown(&self, deadline: Duration) {
        for &uid in &self.ejects {
            let _ = self.kernel.invoke(uid, ops::DEACTIVATE, Value::Unit);
        }
        self.kernel.await_gone(&self.ejects, deadline);
    }
}

/// The results of one pipeline execution.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Output records (empty if the pipeline used a null sink).
    pub output: Vec<Value>,
    /// Records delivered to the sink (valid even with a null sink).
    pub records_out: u64,
    /// Metered events during the data phase (setup excluded).
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration of the data phase.
    pub wall: Duration,
    /// Number of Ejects the pipeline comprised.
    pub entities: usize,
    /// Report-stream captures, keyed by (stage, channel name).
    pub reports: Vec<((usize, String), Vec<Value>)>,
    /// The trace id every span of this run carries (when the kernel records
    /// spans); filter [`Kernel::spans`](eden_kernel::Kernel::spans) by it to
    /// reconstruct the run's causal tree.
    pub trace: u64,
}

impl PipelineRun {
    /// Invocations per output record — the paper's headline metric
    /// (n+1 read-only vs 2n+2 conventional).
    pub fn invocations_per_record(&self) -> f64 {
        if self.records_out == 0 {
            return self.metrics.invocations as f64;
        }
        self.metrics.invocations as f64 / self.records_out as f64
    }

    /// Records per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        self.records_out as f64 / secs
    }

    /// The capture for a given report tap, if present.
    pub fn report(&self, stage: usize, channel: &str) -> Option<&[Value]> {
        self.reports
            .iter()
            .find(|((s, c), _)| *s == stage && c == channel)
            .map(|(_, items)| items.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{filter_fn, map_fn};

    fn doubled(n: i64) -> Vec<Value> {
        (0..n).map(|i| Value::Int(i * 2)).collect()
    }

    fn build_and_run(discipline: Discipline) -> PipelineRun {
        let kernel = Kernel::new();
        let run = PipelineSpec::new(discipline)
            .source_vec((0..40).map(Value::Int).collect())
            .stage(Box::new(map_fn("double", |v| {
                Value::Int(v.as_int().unwrap() * 2)
            })))
            .stage(Box::new(filter_fn("keep-all", |_| true)))
            .batch(4)
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(20))
            .unwrap();
        kernel.shutdown();
        run
    }

    #[test]
    fn read_only_pipeline_runs() {
        let run = build_and_run(Discipline::ReadOnly { read_ahead: 0 });
        assert_eq!(run.output, doubled(40));
        assert_eq!(run.entities, 4); // source + 2 filters + sink
    }

    #[test]
    fn read_only_with_read_ahead_runs() {
        let run = build_and_run(Discipline::ReadOnly { read_ahead: 8 });
        assert_eq!(run.output, doubled(40));
    }

    #[test]
    fn write_only_pipeline_runs() {
        let run = build_and_run(Discipline::WriteOnly { push_ahead: 0 });
        assert_eq!(run.output, doubled(40));
        assert_eq!(run.entities, 4);
    }

    #[test]
    fn write_only_with_push_ahead_runs() {
        let run = build_and_run(Discipline::WriteOnly { push_ahead: 4 });
        assert_eq!(run.output, doubled(40));
    }

    #[test]
    fn conventional_pipeline_runs() {
        let run = build_and_run(Discipline::Conventional { buffer_capacity: 8 });
        assert_eq!(run.output, doubled(40));
        // source + 2 filters + 3 buffers + sink: 2n+3 entities for n=2.
        assert_eq!(run.entities, 7);
    }

    #[test]
    fn all_disciplines_agree() {
        let a = build_and_run(Discipline::ReadOnly { read_ahead: 0 });
        let b = build_and_run(Discipline::WriteOnly { push_ahead: 0 });
        let c = build_and_run(Discipline::Conventional { buffer_capacity: 8 });
        assert_eq!(a.output, b.output);
        assert_eq!(b.output, c.output);
    }

    #[test]
    fn conventional_needs_more_invocations() {
        let ro = build_and_run(Discipline::ReadOnly { read_ahead: 0 });
        let conv = build_and_run(Discipline::Conventional {
            buffer_capacity: 64,
        });
        assert!(
            conv.metrics.invocations > ro.metrics.invocations,
            "conventional {} must exceed read-only {}",
            conv.metrics.invocations,
            ro.metrics.invocations
        );
    }

    #[test]
    fn pipeline_without_source_fails_to_build() {
        let kernel = Kernel::new();
        let err = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .build(&kernel)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EdenError::BadParameter(_)));
        kernel.shutdown();
    }

    #[test]
    fn teardown_reclaims_ejects() {
        let kernel = Kernel::new();
        let pipeline = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_vec((0..4).map(Value::Int).collect())
            .build(&kernel)
            .unwrap();
        // The sink is deferred to run() ("starting the pump"), so a
        // zero-stage pipeline has spawned only its source at this point.
        assert!(kernel.eject_count() >= 1);
        let _run = pipeline.run(Duration::from_secs(10)).unwrap();
        assert_eq!(kernel.eject_count(), 0, "run() must tear the pipeline down");
        kernel.shutdown();
    }

    /// A source that keeps every request and answers none, and says when
    /// the first one arrived.
    struct Mute {
        held: Vec<eden_kernel::ReplyHandle>,
        asked: std::sync::mpsc::Sender<()>,
    }

    impl eden_kernel::EjectBehavior for Mute {
        fn type_name(&self) -> &'static str {
            "Mute"
        }
        fn handle(
            &mut self,
            _ctx: &eden_kernel::EjectContext,
            _inv: eden_kernel::Invocation,
            reply: eden_kernel::ReplyHandle,
        ) {
            self.held.push(reply);
            let _ = self.asked.send(());
        }
    }

    #[test]
    fn teardown_reclaims_a_pipeline_abandoned_mid_stream() {
        let kernel = Kernel::new();
        let (asked, first_ask) = std::sync::mpsc::channel();
        let mute = kernel
            .spawn(Box::new(Mute {
                held: Vec::new(),
                asked,
            }))
            .unwrap();
        let mut pipeline = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_eject(mute)
            .build(&kernel)
            .unwrap();
        // Start the pumps as `run` does, but never wait for the output: the
        // sink's worker sleeps in `wait_or_stop` on a reply that never comes.
        for (_, stage) in pipeline.pumps.drain(..) {
            pipeline.ejects.push(kernel.spawn(Box::new(stage)).unwrap());
        }
        first_ask.recv_timeout(Duration::from_secs(10)).unwrap();
        pipeline.teardown(Duration::from_secs(10));
        for &uid in pipeline.ejects() {
            assert_eq!(kernel.eject_state(uid), None, "{uid} outlived teardown");
        }
        kernel.shutdown();
    }

    #[test]
    fn zero_stage_pipeline_copies() {
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 0 },
            Discipline::Conventional { buffer_capacity: 4 },
        ] {
            let kernel = Kernel::new();
            let run = PipelineSpec::new(discipline)
                .source_vec((0..7).map(Value::Int).collect())
                .build(&kernel)
                .unwrap()
                .run(Duration::from_secs(10))
                .unwrap();
            assert_eq!(run.output, (0..7).map(Value::Int).collect::<Vec<_>>());
            kernel.shutdown();
        }
    }

    #[test]
    fn merged_sources_concatenate_and_zip() {
        let kernel = Kernel::new();
        let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_merge(
                vec![
                    Box::new(crate::source::VecSource::new(vec![
                        Value::Int(1),
                        Value::Int(2),
                    ])),
                    Box::new(crate::source::VecSource::new(vec![Value::Int(10)])),
                ],
                FanInMode::Concatenate,
            )
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(10))
            .unwrap();
        assert_eq!(
            run.output,
            vec![Value::Int(1), Value::Int(2), Value::Int(10)]
        );

        let run = PipelineSpec::new(Discipline::WriteOnly { push_ahead: 0 })
            .source_merge(
                vec![
                    Box::new(crate::source::VecSource::new(vec![
                        Value::Int(1),
                        Value::Int(2),
                    ])),
                    Box::new(crate::source::VecSource::new(vec![
                        Value::Int(10),
                        Value::Int(20),
                    ])),
                ],
                FanInMode::Zip,
            )
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(10))
            .unwrap();
        assert_eq!(
            run.output,
            vec![
                Value::list(vec![Value::Int(1), Value::Int(10)]),
                Value::list(vec![Value::Int(2), Value::Int(20)]),
            ]
        );
        kernel.shutdown();
    }

    #[test]
    fn invalid_taps_rejected_at_build() {
        struct Reporter;
        impl Transform for Reporter {
            fn push(&mut self, item: Value, out: &mut crate::transform::Emitter) {
                out.emit(item);
            }
            fn secondary_channels(&self) -> Vec<&'static str> {
                vec!["Report"]
            }
        }
        let kernel = Kernel::new();
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 0 },
        ] {
            // Stage index out of range.
            let err = PipelineSpec::new(discipline)
                .source_vec(vec![Value::Int(1)])
                .stage(Box::new(Reporter))
                .tap(5, "Report")
                .build(&kernel)
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, EdenError::BadParameter(_)), "{err}");
            // Channel not declared by the stage.
            let err = PipelineSpec::new(discipline)
                .source_vec(vec![Value::Int(1)])
                .stage(Box::new(Reporter))
                .tap(0, "Bogus")
                .build(&kernel)
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, EdenError::NoSuchChannel(_)), "{err}");
        }
        kernel.shutdown();
    }

    #[test]
    fn program_source_feeds_pipeline() {
        // §4's standard IO module as a pipeline source: conventional
        // imperative writes behind passive output.
        let kernel = Kernel::new();
        let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_program(|out| {
                for i in 0..5 {
                    out.write(Value::Int(i * 11)).expect("write");
                }
            })
            .stage(Box::new(filter_fn("nonzero", |v| {
                v.as_int().map(|i| i != 0).unwrap_or(false)
            })))
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(10))
            .unwrap();
        assert_eq!(
            run.output,
            vec![
                Value::Int(11),
                Value::Int(22),
                Value::Int(33),
                Value::Int(44)
            ]
        );
        // The program Eject is part of the pipeline and torn down with it.
        assert_eq!(kernel.eject_count(), 0);
        kernel.shutdown();
    }

    #[test]
    fn empty_merge_is_rejected() {
        let kernel = Kernel::new();
        let err = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_merge(vec![], FanInMode::Concatenate)
            .build(&kernel)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EdenError::BadParameter(_)));
        kernel.shutdown();
    }

    #[test]
    fn distributed_placement_counts_remote_invocations() {
        let kernel = Kernel::new();
        let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_vec((0..10).map(Value::Int).collect())
            .stage(Box::new(map_fn("id", |v| v)))
            .over_nodes(3)
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(10))
            .unwrap();
        assert!(run.metrics.remote_invocations > 0);
        kernel.shutdown();
    }

    // -- static conformance: PipelineSpec::graph() ---------------------

    fn spec(discipline: Discipline) -> PipelineSpec {
        PipelineSpec::new(discipline)
            .source_vec((0..4).map(Value::Int).collect())
            .stage(Box::new(map_fn("id", |v| v)))
            .stage(Box::new(filter_fn("keep", |_| true)))
    }

    #[test]
    fn specs_conform_by_construction() {
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 2 },
            Discipline::Conventional { buffer_capacity: 8 },
        ] {
            let g = spec(discipline).graph().unwrap();
            assert!(g.check().is_empty(), "{discipline:?}: {:?}", g.check());
        }
    }

    #[test]
    fn graph_mirrors_conventional_buffer_count() {
        // n filters → n+1 buffers (Figure 1), visible in the graph.
        let g = spec(Discipline::Conventional { buffer_capacity: 8 })
            .graph()
            .unwrap();
        let buffers = g.nodes.values().filter(|r| **r == NodeRole::Buffer).count();
        assert_eq!(buffers, 3);
    }

    #[test]
    fn graph_grants_every_edge_under_capability_policy() {
        let g = spec(Discipline::ReadOnly { read_ahead: 0 })
            .policy(ChannelPolicy::Capability)
            .graph()
            .unwrap();
        assert_eq!(g.policy, GrantPolicy::Capability);
        assert_eq!(g.grants.len(), g.edges.len());
        assert!(g.check().is_empty());
    }

    #[test]
    fn tapped_spec_graph_conforms() {
        struct Reporter;
        impl Transform for Reporter {
            fn push(&mut self, item: Value, out: &mut crate::transform::Emitter) {
                out.emit(item);
            }
            fn secondary_channels(&self) -> Vec<&'static str> {
                vec!["Report"]
            }
        }
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 0 },
            Discipline::Conventional { buffer_capacity: 4 },
        ] {
            let g = PipelineSpec::new(discipline)
                .source_vec(vec![Value::Int(1)])
                .stage(Box::new(Reporter))
                .tap(0, "Report")
                .graph()
                .unwrap();
            assert!(g.check().is_empty(), "{discipline:?}: {:?}", g.check());
        }
    }

    #[test]
    fn merged_spec_graph_conforms_in_both_asymmetric_disciplines() {
        // Fan-in is natural under read-only; under write-only the builder
        // interposes a pull-side merge filter plus a pump — the §5
        // workaround for "fan-in is impossible" — and the graph records
        // those edges as pull-mode, which the write-only predicate
        // exempts.
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 0 },
            Discipline::Conventional { buffer_capacity: 4 },
        ] {
            let g = PipelineSpec::new(discipline)
                .source_merge(
                    vec![
                        Box::new(VecSource::new(vec![Value::Int(1)])),
                        Box::new(VecSource::new(vec![Value::Int(2)])),
                    ],
                    FanInMode::Concatenate,
                )
                .graph()
                .unwrap();
            assert!(g.check().is_empty(), "{discipline:?}: {:?}", g.check());
        }
    }

    #[test]
    fn discipline_kind_strips_knobs() {
        assert_eq!(
            Discipline::ReadOnly { read_ahead: 9 }.kind(),
            DisciplineKind::ReadOnly
        );
        assert_eq!(
            Discipline::WriteOnly { push_ahead: 9 }.kind(),
            DisciplineKind::WriteOnly
        );
        assert_eq!(
            Discipline::Conventional { buffer_capacity: 9 }.kind(),
            DisciplineKind::Conventional
        );
    }
}
