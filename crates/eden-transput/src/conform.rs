//! Static discipline conformance: the wiring graph and its predicates.
//!
//! Black's correctness argument is structural — a pipeline is sound
//! because of the *shape* of its wiring, not because of anything the
//! filters do at runtime (§3–§5). This module makes that shape a first-
//! class value: a [`WiringGraph`] of sources, filters, passive buffers,
//! and sinks, with directed data-flow edges labelled by channel name,
//! plus the channel *grants* recorded by the §5 connection protocol.
//!
//! [`check`] evaluates the discipline rules as graph predicates:
//!
//! * **read-only** admits fan-in but never fan-out: no `(producer,
//!   channel)` pair may feed two consumers ([`Rule::FanOutUnderReadOnly`]);
//! * **write-only** is the exact dual: no consumer may be fed by two
//!   producers ([`Rule::FanInUnderWriteOnly`]);
//! * **conventional** is only sound when every active pair is glued by a
//!   passive buffer: an edge with no [`NodeRole::Buffer`] endpoint is a
//!   deadlock-in-waiting ([`Rule::UnbufferedFilterEdge`]);
//! * under the **capability** channel policy, every edge must be covered
//!   by a grant from the §5 `GetChannel` handshake — a consumer using a
//!   channel it was never granted is forging a capability
//!   ([`Rule::ChannelForgery`]).
//!
//! [`crate::pipeline::PipelineSpec::graph`] produces these graphs for
//! every in-repo pipeline (conforming by construction — `build` rejects
//! the spec otherwise); `eden-lint` additionally evaluates hand-written
//! violation fixtures to prove each rule fires.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which discipline's predicates apply to a graph. The shape rules need
/// only the discipline's identity, not its tuning knobs (`read_ahead`,
/// `push_ahead`, buffer capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisciplineKind {
    /// Active input + passive output; fan-in natural, fan-out forbidden.
    ReadOnly,
    /// Passive input + active output; fan-out natural, fan-in impossible.
    WriteOnly,
    /// Active both ways; every active pair needs a passive buffer.
    Conventional,
}

impl fmt::Display for DisciplineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which side of a stream connection does the invoking. Every stage has an
/// input face and an output face, each in one of these modes (§2's four
/// primitives are the four (face, mode) pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Sends the invocation: `Transfer` to read, `Write` to write.
    Active,
    /// Answers it.
    Passive,
}

impl Mode {
    /// The mode of the corresponding face: an active face needs a passive
    /// one to talk to, and a passive face an active one to be moved by.
    pub fn peer(self) -> Mode {
        match self {
            Mode::Active => Mode::Passive,
            Mode::Passive => Mode::Active,
        }
    }
}

impl DisciplineKind {
    /// A short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            DisciplineKind::ReadOnly => "read-only",
            DisciplineKind::WriteOnly => "write-only",
            DisciplineKind::Conventional => "conventional",
        }
    }

    /// A discipline is nothing but its filters' `(input, output)` faces;
    /// which sources, sinks, pumps and buffers a pipeline then needs
    /// follows from joining each active face to a passive one.
    pub fn faces(self) -> (Mode, Mode) {
        match self {
            DisciplineKind::ReadOnly => (Mode::Active, Mode::Passive),
            DisciplineKind::WriteOnly => (Mode::Passive, Mode::Active),
            DisciplineKind::Conventional => (Mode::Active, Mode::Active),
        }
    }
}

/// What a node *is* in the wiring, which determines which predicates see
/// it. Buffers are the only passive role; everything else is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Supplies records (a `PullSource` Eject, a program source, or an
    /// external Eject answering `Transfer`).
    Source,
    /// Transforms records; active on at least one side.
    Filter,
    /// A passive buffer Eject (conventional discipline glue).
    Buffer,
    /// Consumes records (the output collector or a report window).
    Sink,
}

impl fmt::Display for NodeRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeRole::Source => "source",
            NodeRole::Filter => "filter",
            NodeRole::Buffer => "buffer",
            NodeRole::Sink => "sink",
        })
    }
}

/// Whether edges must be covered by grants ([`Rule::ChannelForgery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantPolicy {
    /// Channels are well-known small integers; no grants needed (§5's
    /// "simple" policy).
    Integer,
    /// Channel identifiers are unforgeable capabilities learned through
    /// `GetChannel`; every edge needs a recorded grant.
    Capability,
}

/// Who is active on an edge: the consumer (pull) or the producer (push).
///
/// The asymmetric predicates are mode-sensitive: fan-out is forbidden on
/// *pulled* channels (passive output serves one reader), fan-in on
/// *pushed* ports (active output writes to one acceptor). A write-only
/// pipeline may therefore legally contain a pull-wired fan-in sub-graph —
/// the §5 workaround of merging with a read-only filter behind a pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMode {
    /// The consumer actively reads; the producer's end is passive.
    Pull,
    /// The producer actively writes; the consumer's end is passive.
    Push,
    /// Both ends are active (conventional wiring) — sound only through a
    /// passive buffer.
    Rendezvous,
}

impl EdgeMode {
    /// The mode of the edge on which an `output` face meets an `input` face.
    /// Panics on two passive faces: no plan joins them.
    pub fn between(output: Mode, input: Mode) -> EdgeMode {
        match (output, input) {
            (Mode::Passive, Mode::Active) => EdgeMode::Pull,
            (Mode::Active, Mode::Passive) => EdgeMode::Push,
            // Sound only through a passive buffer, which `check` insists on.
            (Mode::Active, Mode::Active) => EdgeMode::Rendezvous,
            (Mode::Passive, Mode::Passive) => unreachable!("nothing would move the records"),
        }
    }
}

/// A directed data-flow edge: `consumer` reads (or is written) records
/// from `producer`'s channel `channel`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEdge {
    /// The node whose channel carries the records.
    pub producer: String,
    /// The producer-side channel name (`"Output"` for primary streams).
    pub channel: String,
    /// The node receiving the records.
    pub consumer: String,
    /// Which end is active.
    pub mode: EdgeMode,
}

/// A record of the §5 connection protocol: `consumer` was handed the
/// identifier of `producer`'s channel `channel` (via `GetChannel` or by
/// the wirer that spawned both ends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelGrant {
    /// The node that was granted access.
    pub consumer: String,
    /// The node whose channel the grant covers.
    pub producer: String,
    /// The granted channel's name.
    pub channel: String,
}

/// The wiring shape of one pipeline, ready for [`check`].
#[derive(Debug, Clone)]
pub struct WiringGraph {
    /// Which discipline's predicates apply.
    pub discipline: DisciplineKind,
    /// Whether [`Rule::ChannelForgery`] is in force.
    pub policy: GrantPolicy,
    /// Node name → role. Ordered so reports are deterministic.
    pub nodes: BTreeMap<String, NodeRole>,
    /// Directed data-flow edges.
    pub edges: Vec<GraphEdge>,
    /// Recorded channel grants.
    pub grants: Vec<ChannelGrant>,
}

impl WiringGraph {
    /// An empty graph under `discipline` with the integer channel policy.
    pub fn new(discipline: DisciplineKind) -> WiringGraph {
        WiringGraph {
            discipline,
            policy: GrantPolicy::Integer,
            nodes: BTreeMap::new(),
            edges: Vec::new(),
            grants: Vec::new(),
        }
    }

    /// Switch the channel policy (builder-style).
    pub fn policy(mut self, policy: GrantPolicy) -> WiringGraph {
        self.policy = policy;
        self
    }

    /// Add (or re-role) a node.
    pub fn node(&mut self, name: impl Into<String>, role: NodeRole) -> &mut Self {
        self.nodes.insert(name.into(), role);
        self
    }

    /// Add a data-flow edge `producer --channel--> consumer` in the
    /// discipline's native mode: pull under read-only, push under
    /// write-only, rendezvous (both ends active) under conventional.
    pub fn edge(
        &mut self,
        producer: impl Into<String>,
        channel: impl Into<String>,
        consumer: impl Into<String>,
    ) -> &mut Self {
        let mode = match self.discipline {
            DisciplineKind::ReadOnly => EdgeMode::Pull,
            DisciplineKind::WriteOnly => EdgeMode::Push,
            DisciplineKind::Conventional => EdgeMode::Rendezvous,
        };
        self.edge_mode(producer, channel, consumer, mode)
    }

    /// Add a data-flow edge with an explicit [`EdgeMode`] — for the
    /// pull-wired sub-graphs (merge filters, identity pumps) that appear
    /// inside source-pumped pipelines.
    pub fn edge_mode(
        &mut self,
        producer: impl Into<String>,
        channel: impl Into<String>,
        consumer: impl Into<String>,
        mode: EdgeMode,
    ) -> &mut Self {
        self.edges.push(GraphEdge {
            producer: producer.into(),
            channel: channel.into(),
            consumer: consumer.into(),
            mode,
        });
        self
    }

    /// Record a channel grant for `consumer` on `producer`'s `channel`.
    pub fn grant(
        &mut self,
        consumer: impl Into<String>,
        producer: impl Into<String>,
        channel: impl Into<String>,
    ) -> &mut Self {
        self.grants.push(ChannelGrant {
            consumer: consumer.into(),
            producer: producer.into(),
            channel: channel.into(),
        });
        self
    }

    /// Grant every edge — what the in-repo wirer does, since it performs
    /// the `GetChannel` handshake for each connection it makes itself.
    pub fn grant_all_edges(&mut self) -> &mut Self {
        let grants: Vec<ChannelGrant> = self
            .edges
            .iter()
            .map(|e| ChannelGrant {
                consumer: e.consumer.clone(),
                producer: e.producer.clone(),
                channel: e.channel.clone(),
            })
            .collect();
        self.grants.extend(grants);
        self
    }

    /// Evaluate every discipline predicate. Empty = conforming.
    pub fn check(&self) -> Vec<Violation> {
        check(self)
    }
}

/// Which predicate a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Two consumers on one `(producer, channel)` under read-only (§3:
    /// passive output serves *one* puller; fan-out needs explicit
    /// secondary channels, each with its own single consumer).
    FanOutUnderReadOnly,
    /// Two producers into one consumer under write-only (§3: the dual —
    /// active output pushes to *one* acceptor port).
    FanInUnderWriteOnly,
    /// A conventional edge with no passive buffer endpoint (§4, Figure 1:
    /// two active ends with no glue deadlock on rendezvous).
    UnbufferedFilterEdge,
    /// An edge not covered by any grant under the capability policy (§5:
    /// channel identifiers are unforgeable; using one you were never
    /// handed is a forgery).
    ChannelForgery,
    /// An edge endpoint that is not a declared node — always an error,
    /// whatever the discipline.
    UnknownNode,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::FanOutUnderReadOnly => "fan-out-under-read-only",
            Rule::FanInUnderWriteOnly => "fan-in-under-write-only",
            Rule::UnbufferedFilterEdge => "unbuffered-filter-edge",
            Rule::ChannelForgery => "channel-forgery",
            Rule::UnknownNode => "unknown-node",
        })
    }
}

/// One broken predicate, with the nodes that break it named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The predicate that failed.
    pub rule: Rule,
    /// Human-readable account naming the offending nodes/edges.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.message)
    }
}

/// Evaluate the discipline predicates over `graph`. Deterministic order:
/// unknown nodes first, then the discipline's shape rule over edges in
/// insertion order, then forgery.
pub fn check(graph: &WiringGraph) -> Vec<Violation> {
    let mut violations = Vec::new();

    for edge in &graph.edges {
        for end in [&edge.producer, &edge.consumer] {
            if !graph.nodes.contains_key(end) {
                violations.push(Violation {
                    rule: Rule::UnknownNode,
                    message: format!(
                        "edge {} --{}--> {} references undeclared node `{}`",
                        edge.producer, edge.channel, edge.consumer, end
                    ),
                });
            }
        }
    }

    match graph.discipline {
        DisciplineKind::ReadOnly => {
            // Group consumers per pulled (producer, channel); >1 is fan-out.
            let mut consumers: BTreeMap<(&str, &str), Vec<&str>> = BTreeMap::new();
            for e in graph.edges.iter().filter(|e| e.mode == EdgeMode::Pull) {
                consumers
                    .entry((&e.producer, &e.channel))
                    .or_default()
                    .push(&e.consumer);
            }
            for ((producer, channel), readers) in consumers {
                if readers.len() > 1 {
                    violations.push(Violation {
                        rule: Rule::FanOutUnderReadOnly,
                        message: format!(
                            "channel `{channel}` of `{producer}` feeds {} consumers ({}) — \
                             read-only wiring admits one reader per channel",
                            readers.len(),
                            readers.join(", ")
                        ),
                    });
                }
            }
        }
        DisciplineKind::WriteOnly => {
            // Group producers per pushed-into consumer; >1 is fan-in.
            // Pull edges are exempt: a read-only merge filter behind a
            // pump is the legal §5 fan-in workaround.
            let mut producers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
            for e in graph.edges.iter().filter(|e| e.mode == EdgeMode::Push) {
                producers.entry(&e.consumer).or_default().insert(&e.producer);
            }
            for (consumer, writers) in producers {
                if writers.len() > 1 {
                    violations.push(Violation {
                        rule: Rule::FanInUnderWriteOnly,
                        message: format!(
                            "`{consumer}` is written by {} producers ({}) — \
                             write-only wiring cannot merge streams",
                            writers.len(),
                            writers.iter().copied().collect::<Vec<_>>().join(", ")
                        ),
                    });
                }
            }
        }
        DisciplineKind::Conventional => {
            // Only rendezvous edges (both ends active) need buffer glue;
            // an explicitly pull- or push-mode edge is asymmetric wiring,
            // sound by the asymmetric argument.
            for e in graph.edges.iter().filter(|e| e.mode == EdgeMode::Rendezvous) {
                let ends_buffered = [&e.producer, &e.consumer]
                    .iter()
                    .any(|n| graph.nodes.get(*n) == Some(&NodeRole::Buffer));
                if !ends_buffered {
                    violations.push(Violation {
                        rule: Rule::UnbufferedFilterEdge,
                        message: format!(
                            "edge {} --{}--> {} joins two active ends with no passive \
                             buffer between them",
                            e.producer, e.channel, e.consumer
                        ),
                    });
                }
            }
        }
    }

    if graph.policy == GrantPolicy::Capability {
        for e in &graph.edges {
            let granted = graph.grants.iter().any(|g| {
                g.consumer == e.consumer && g.producer == e.producer && g.channel == e.channel
            });
            if !granted {
                violations.push(Violation {
                    rule: Rule::ChannelForgery,
                    message: format!(
                        "`{}` uses channel `{}` of `{}` without a grant — \
                         capability identifiers must come from GetChannel",
                        e.consumer, e.channel, e.producer
                    ),
                });
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(discipline: DisciplineKind) -> WiringGraph {
        let mut g = WiringGraph::new(discipline);
        g.node("src", NodeRole::Source)
            .node("f1", NodeRole::Filter)
            .node("sink", NodeRole::Sink)
            .edge("src", "Output", "f1")
            .edge("f1", "Output", "sink");
        g
    }

    #[test]
    fn linear_read_only_conforms() {
        assert!(linear(DisciplineKind::ReadOnly).check().is_empty());
    }

    #[test]
    fn linear_write_only_conforms() {
        assert!(linear(DisciplineKind::WriteOnly).check().is_empty());
    }

    #[test]
    fn fan_out_rejected_under_read_only() {
        let mut g = linear(DisciplineKind::ReadOnly);
        g.node("sink2", NodeRole::Sink).edge("f1", "Output", "sink2");
        let v = g.check();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FanOutUnderReadOnly);
    }

    #[test]
    fn report_channels_are_not_fan_out() {
        // A second consumer on a *different* channel of the same filter is
        // the §5 report-stream pattern, not fan-out.
        let mut g = linear(DisciplineKind::ReadOnly);
        g.node("report", NodeRole::Sink).edge("f1", "Report", "report");
        assert!(g.check().is_empty());
    }

    #[test]
    fn fan_in_rejected_under_write_only() {
        let mut g = linear(DisciplineKind::WriteOnly);
        g.node("src2", NodeRole::Source).edge("src2", "Output", "f1");
        let v = g.check();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FanInUnderWriteOnly);
    }

    #[test]
    fn fan_in_allowed_under_read_only() {
        let mut g = linear(DisciplineKind::ReadOnly);
        g.node("src2", NodeRole::Source).edge("src2", "Output", "f1");
        assert!(g.check().is_empty());
    }

    #[test]
    fn pull_wired_merge_is_legal_under_write_only() {
        // The §5 workaround: a read-only merge filter pulls both sources
        // and a pump pushes the merged stream onward. The fan-in exists
        // only on pull edges, which the write-only predicate exempts.
        let mut g = WiringGraph::new(DisciplineKind::WriteOnly);
        g.node("src1", NodeRole::Source)
            .node("src2", NodeRole::Source)
            .node("merge", NodeRole::Filter)
            .node("pump", NodeRole::Filter)
            .node("sink", NodeRole::Sink)
            .edge_mode("src1", "Output", "merge", EdgeMode::Pull)
            .edge_mode("src2", "Output", "merge", EdgeMode::Pull)
            .edge_mode("merge", "Output", "pump", EdgeMode::Pull)
            .edge("pump", "Output", "sink");
        assert!(g.check().is_empty(), "{:?}", g.check());
    }

    #[test]
    fn fan_out_allowed_under_write_only() {
        let mut g = linear(DisciplineKind::WriteOnly);
        g.node("sink2", NodeRole::Sink).edge("f1", "Output", "sink2");
        assert!(g.check().is_empty());
    }

    #[test]
    fn unbuffered_edge_rejected_under_conventional() {
        let v = linear(DisciplineKind::Conventional).check();
        assert_eq!(v.len(), 2, "both active-active edges flagged");
        assert!(v.iter().all(|v| v.rule == Rule::UnbufferedFilterEdge));
    }

    #[test]
    fn buffered_conventional_conforms() {
        let mut g = WiringGraph::new(DisciplineKind::Conventional);
        g.node("src", NodeRole::Source)
            .node("b0", NodeRole::Buffer)
            .node("f1", NodeRole::Filter)
            .node("b1", NodeRole::Buffer)
            .node("sink", NodeRole::Sink)
            .edge("src", "Output", "b0")
            .edge("b0", "Output", "f1")
            .edge("f1", "Output", "b1")
            .edge("b1", "Output", "sink");
        assert!(g.check().is_empty());
    }

    #[test]
    fn forgery_rejected_under_capability_policy() {
        let mut g = linear(DisciplineKind::ReadOnly);
        g.policy = GrantPolicy::Capability;
        g.grant("f1", "src", "Output"); // sink's edge is not granted
        let v = g.check();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ChannelForgery);
        assert!(v[0].message.contains("sink"));
    }

    #[test]
    fn grant_all_edges_satisfies_capability_policy() {
        let mut g = linear(DisciplineKind::ReadOnly);
        g.policy = GrantPolicy::Capability;
        g.grant_all_edges();
        assert!(g.check().is_empty());
    }

    #[test]
    fn integer_policy_needs_no_grants() {
        assert!(linear(DisciplineKind::ReadOnly).check().is_empty());
    }

    #[test]
    fn dangling_edge_is_flagged() {
        let mut g = WiringGraph::new(DisciplineKind::ReadOnly);
        g.node("src", NodeRole::Source).edge("src", "Output", "ghost");
        let v = g.check();
        assert_eq!(v[0].rule, Rule::UnknownNode);
    }

    #[test]
    fn violations_display_rule_and_nodes() {
        let mut g = linear(DisciplineKind::ReadOnly);
        g.node("sink2", NodeRole::Sink).edge("f1", "Output", "sink2");
        let text = g.check()[0].to_string();
        assert!(text.contains("fan-out-under-read-only"), "{text}");
        assert!(text.contains("f1"), "{text}");
    }
}
