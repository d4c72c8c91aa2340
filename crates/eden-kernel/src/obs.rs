//! The observability plane: the kernel's one record of what happened —
//! causal invocation spans and Eject lifecycle events — per-stage latency
//! histograms, and the renderers behind `eden-shell`'s `stats`, `trace` and
//! `trace export` commands.
//!
//! Everything here hangs off the single invocation verb. When enabled via
//! [`ObsConfig`], the kernel tags every *delivered* invocation with a
//! [`SpanContext`] child of whatever span is ambient on the sending thread
//! (see [`eden_core::span`]), stamps it with an enqueue time at dispatch and
//! a dequeue time when the coordinator picks it up, and completes the span
//! when the reply resolves — so queue wait and service time are split
//! correctly even for deferred replies (the paper's passive output: a parked
//! `ReplyHandle` is *still being serviced*).
//!
//! The store is sharded by recording thread and merged on snapshot, keeping
//! the hot path to one short mutex acquisition per completed invocation; with
//! the plane disabled (the default) the kernel carries no tag at all and the
//! cost is one `Option` check per invocation.
//!
//! A shard holds two kinds of entry, each in its own ring of the same
//! capacity: [`SpanRecord`]s (one per delivery) and [`LifecycleRecord`]s (an
//! Eject activated or stopped, recorded only while spans are on). They are
//! separate rings so that a lifecycle event never evicts a span: a kernel
//! sized for its invocations keeps every one of them however many Ejects it
//! spawns.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use eden_core::span::SpanContext;
use eden_core::{MetricsSnapshot, OpName, PayloadSnapshot, StreamSnapshot, Uid};
use parking_lot::Mutex;

use crate::kernel::NodeId;
use crate::sched::SchedSnapshot;

/// Construction-time options for the observability plane, carried in
/// [`KernelConfig::observability`](crate::KernelConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record a causal span per delivered invocation.
    pub spans: bool,
    /// Record per-(Eject, op) queue-wait and service-time histograms.
    pub histograms: bool,
    /// Ring capacity of the span store (oldest spans are dropped beyond
    /// this, counted in [`Kernel::spans_dropped`](crate::Kernel)). The
    /// lifecycle ring beside it is bounded by the same number.
    pub span_capacity: usize,
}

impl ObsConfig {
    /// Everything off — the zero-overhead default.
    pub fn off() -> ObsConfig {
        ObsConfig {
            spans: false,
            histograms: false,
            // Sized so the ring wraps and stays cache-resident under load:
            // a cold, ever-growing span store streams every record through
            // DRAM and that traffic — not the bookkeeping — dominates the
            // plane's overhead. Raise it for deeper history at a measured
            // cost.
            span_capacity: 8_192,
        }
    }

    /// Spans and histograms both on, default capacity.
    pub fn full() -> ObsConfig {
        ObsConfig {
            spans: true,
            histograms: true,
            ..ObsConfig::off()
        }
    }

    /// True if any instrumentation is requested.
    pub(crate) fn enabled(&self) -> bool {
        self.spans || self.histograms
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::off()
    }
}

/// One completed invocation span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this invocation belongs to.
    pub trace: u64,
    /// This invocation's span id.
    pub span: u64,
    /// The causing span, if any.
    pub parent: Option<u64>,
    /// Hops from the trace root.
    pub hop: u32,
    /// The target Eject.
    pub target: Uid,
    /// The operation.
    pub op: OpName,
    /// Originating node.
    pub(crate) from: NodeId,
    /// Target's node.
    pub(crate) to: NodeId,
    /// Dispatch time, nanoseconds since the kernel's observability epoch.
    pub start_ns: u64,
    /// Time spent in the target's mailbox before the coordinator picked the
    /// invocation up (zero if it never reached a coordinator). Excludes the
    /// scheduler wait below: `queue + sched + service` decomposes the whole
    /// span exactly.
    pub queue_ns: u64,
    /// Scheduler wait: time the target's parked state machine spent on the
    /// run queue before a worker resumed it to service this invocation
    /// (zero when the sender's own call ran it, with no queue in between).
    pub sched_ns: u64,
    /// Time from dequeue to reply resolution — includes any time the reply
    /// was parked as passive output.
    pub service_ns: u64,
    /// Whether the reply was `Ok`.
    pub ok: bool,
}

/// What happened to an Eject, as the kernel saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// The Eject was (re)activated.
    Activate {
        /// The Eject.
        uid: Uid,
        /// Its Eden type name.
        type_name: &'static str,
    },
    /// The Eject stopped (deactivation, crash, or shutdown).
    Stop {
        /// The Eject.
        uid: Uid,
        /// True if it stopped by a fail-stop crash.
        crashed: bool,
    },
}

/// One lifecycle event and when it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleRecord {
    /// Nanoseconds since the kernel's observability epoch (the clock of
    /// [`SpanRecord::start_ns`]).
    pub(crate) at_ns: u64,
    /// What happened.
    pub event: Lifecycle,
}

/// A fixed-layout log2 histogram of nanosecond durations. Bucket `b` holds
/// values in `[2^(b-1), 2^b)`; 64 buckets cover every `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        (64 - ns.leading_zeros() as usize).min(63)
    }

    fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Number of recorded samples.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the bucket containing that rank (0 when empty). Log2 buckets make
    /// this exact to within a factor of two — the resolution the paper's
    /// order-of-magnitude cost argument needs.
    pub(crate) fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 { 0 } else { 1u64 << b.min(63) };
            }
        }
        u64::MAX
    }

    /// Median (see [`quantile_ns`](Histogram::quantile_ns)).
    pub(crate) fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 99th percentile (see [`quantile_ns`](Histogram::quantile_ns)).
    pub(crate) fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }
}

/// Merged per-(Eject, op) latency statistics, one row per stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// The target Eject.
    pub target: Uid,
    /// The operation.
    pub(crate) op: OpName,
    /// Completed invocations of this (Eject, op).
    pub count: u64,
    /// Mailbox wait distribution (run-queue time excluded).
    pub(crate) queue: Histogram,
    /// Scheduler wait distribution (run-queue time).
    pub(crate) sched: Histogram,
    /// Service time distribution (dequeue to reply resolution).
    pub(crate) service: Histogram,
}

/// One per-stage accumulator. The shards hold these in a flat vector and
/// find them by linear scan: completions land on the responder's own
/// coordinator thread, so a shard sees only the handful of (Eject, op)
/// pairs that thread serves, and a two-word compare over ≤ a dozen entries
/// beats hashing the key on the reply path every time.
struct StageSlot {
    target: Uid,
    op: OpName,
    queue: Histogram,
    sched: Histogram,
    service: Histogram,
}

struct ObsShard {
    spans: VecDeque<SpanRecord>,
    lifecycle: VecDeque<LifecycleRecord>,
    /// Lifecycle records this shard's ring has evicted.
    lifecycle_evicted: u64,
    stages: Vec<StageSlot>,
}

impl ObsShard {
    fn stage_slot(&mut self, target: Uid, op: &OpName) -> &mut StageSlot {
        let pos = self
            .stages
            .iter()
            .position(|s| s.target == target && s.op == *op);
        let idx = match pos {
            Some(idx) => idx,
            None => {
                self.stages.push(StageSlot {
                    target,
                    op: op.clone(),
                    queue: Histogram::new(),
                    sched: Histogram::new(),
                    service: Histogram::new(),
                });
                self.stages.len() - 1
            }
        };
        &mut self.stages[idx]
    }
}

/// The sharded span + histogram store. One per kernel, present only when
/// [`ObsConfig::enabled`] — a disabled kernel pays a single pointer check.
pub(crate) struct ObsPlane {
    config: ObsConfig,
    epoch: Instant,
    shards: Box<[Mutex<ObsShard>]>,
    shard_capacity: usize,
    dropped: AtomicU64,
}

const OBS_SHARDS: usize = 16;

impl ObsPlane {
    pub(crate) fn new(config: ObsConfig) -> ObsPlane {
        let shard_capacity = (config.span_capacity / OBS_SHARDS).max(1);
        let shards = (0..OBS_SHARDS)
            .map(|_| {
                Mutex::new(ObsShard {
                    // Reserve the ring up front: growing a VecDeque under
                    // the shard lock copies every record it already holds,
                    // roughly doubling the hot path's memory traffic. The
                    // reservation is virtual memory until touched.
                    spans: VecDeque::with_capacity(if config.spans { shard_capacity } else { 0 }),
                    // Not reserved: most kernels spawn far fewer Ejects than
                    // they deliver invocations.
                    lifecycle: VecDeque::new(),
                    lifecycle_evicted: 0,
                    stages: Vec::new(),
                })
            })
            .collect();
        ObsPlane {
            config,
            epoch: Instant::now(),
            shards,
            shard_capacity,
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn config(&self) -> ObsConfig {
        self.config
    }

    /// The calling thread's shard. Completions run on the responder's
    /// coordinator thread, so handing each thread its own shard (round-
    /// robin on first use) makes the hot-path lock effectively private —
    /// sharding by target UID instead lets two coordinators collide in a
    /// shard and park on each other, which costs a context switch per
    /// collision on small machines. Snapshot-time merging handles the
    /// scatter.
    fn shard_of_thread(&self) -> &Mutex<ObsShard> {
        use std::cell::Cell;
        static NEXT_SHARD: AtomicU64 = AtomicU64::new(0);
        thread_local! {
            static SHARD_IDX: Cell<u64> = const { Cell::new(u64::MAX) };
        }
        let idx = SHARD_IDX.with(|c| {
            let mut v = c.get();
            if v == u64::MAX {
                v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
                c.set(v);
            }
            v
        });
        &self.shards[idx as usize % OBS_SHARDS]
    }

    /// Record one completed invocation. Called from whichever thread
    /// resolved the reply; one sharded lock, no allocation beyond the ring
    /// slot.
    pub(crate) fn complete(&self, tag: &ObsTag, ok: bool) {
        let end = Instant::now();
        let dequeued = tag.dequeued.unwrap_or(end);
        // The scheduler wait (stamped at pickup) is
        // carved out of the enqueue→dequeue interval, so the three stages
        // still sum to the exact span duration.
        let total_wait_ns = dequeued.saturating_duration_since(tag.enqueued).as_nanos() as u64;
        let sched_ns = tag.sched_ns.min(total_wait_ns);
        let queue_ns = total_wait_ns - sched_ns;
        let service_ns = end.saturating_duration_since(dequeued).as_nanos() as u64;
        let mut shard = self.shard_of_thread().lock();
        if self.config.histograms {
            let slot = shard.stage_slot(tag.target, &tag.op);
            slot.queue.record(queue_ns);
            slot.sched.record(sched_ns);
            slot.service.record(service_ns);
        }
        if self.config.spans {
            self.push_span(
                &mut shard,
                SpanRecord {
                    trace: tag.ctx.trace,
                    span: tag.ctx.span,
                    parent: tag.ctx.parent,
                    hop: tag.ctx.hop,
                    target: tag.target,
                    op: tag.op.clone(),
                    from: tag.from,
                    to: tag.to,
                    start_ns: self.since_epoch(tag.enqueued),
                    queue_ns,
                    sched_ns,
                    service_ns,
                    ok,
                },
            );
        }
    }

    /// Record a zero-duration failed span for a delivery attempt the fault
    /// injector killed on the invocation path. The attempt never built a
    /// reply pair — no queue wait, no service time, so no histogram
    /// sample — but it must still appear in the causal tree, or a
    /// crash-recovery trace shows retries with no visible cause.
    pub(crate) fn record_faulted(&self, ctx: SpanContext, target: Uid, op: &OpName, from: NodeId) {
        if !self.config.spans {
            return;
        }
        let start_ns = self.since_epoch(Instant::now());
        let mut shard = self.shard_of_thread().lock();
        self.push_span(
            &mut shard,
            SpanRecord {
                trace: ctx.trace,
                span: ctx.span,
                parent: ctx.parent,
                hop: ctx.hop,
                target,
                op: op.clone(),
                // The route never resolved; the span dies where it was sent.
                from,
                to: from,
                start_ns,
                queue_ns: 0,
                sched_ns: 0,
                service_ns: 0,
                ok: false,
            },
        );
    }

    /// Record that an Eject was activated or stopped, in the calling
    /// thread's shard. A no-op unless spans are on: the lifecycle ring is
    /// part of the span store, not a second thing to switch on.
    pub(crate) fn record_lifecycle(&self, event: Lifecycle) {
        if !self.config.spans {
            return;
        }
        let at_ns = self.since_epoch(Instant::now());
        let mut shard = self.shard_of_thread().lock();
        if shard.lifecycle.len() == self.shard_capacity {
            shard.lifecycle.pop_front();
            shard.lifecycle_evicted += 1;
        }
        shard.lifecycle.push_back(LifecycleRecord { at_ns, event });
    }

    /// The one place a record of a delivery enters the store.
    fn push_span(&self, shard: &mut ObsShard, record: SpanRecord) {
        if shard.spans.len() == self.shard_capacity {
            shard.spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.spans.push_back(record);
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// All recorded spans, merged across shards, ordered by start time.
    pub(crate) fn spans(&self) -> Vec<SpanRecord> {
        let mut all: Vec<SpanRecord> = Vec::new();
        for shard in self.shards.iter() {
            all.extend(shard.lock().spans.iter().cloned());
        }
        all.sort_by_key(|s| (s.start_ns, s.span));
        all
    }

    /// Spans evicted from the ring since the kernel started.
    pub(crate) fn spans_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Spans currently held across all shards.
    pub(crate) fn span_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.lock().spans.len() as u64)
            .sum()
    }

    /// The lifecycle records still held, merged across shards and ordered
    /// by time, and the count the rings have evicted.
    pub(crate) fn lifecycle(&self) -> (Vec<LifecycleRecord>, u64) {
        let mut all: Vec<LifecycleRecord> = Vec::new();
        let mut evicted = 0;
        for shard in self.shards.iter() {
            let shard = shard.lock();
            all.extend(shard.lifecycle.iter().copied());
            evicted += shard.lifecycle_evicted;
        }
        all.sort_by_key(|l| l.at_ns);
        (all, evicted)
    }

    /// Per-stage latency summaries, busiest first.
    pub(crate) fn stage_summaries(&self) -> Vec<StageSummary> {
        let mut rows: Vec<StageSummary> = Vec::new();
        for shard in self.shards.iter() {
            for slot in shard.lock().stages.iter() {
                match rows
                    .iter_mut()
                    .find(|r| r.target == slot.target && r.op == slot.op)
                {
                    Some(row) => {
                        row.queue.merge(&slot.queue);
                        row.sched.merge(&slot.sched);
                        row.service.merge(&slot.service);
                        row.count = row.service.count();
                    }
                    None => rows.push(StageSummary {
                        target: slot.target,
                        op: slot.op.clone(),
                        count: slot.service.count(),
                        queue: slot.queue.clone(),
                        sched: slot.sched.clone(),
                        service: slot.service.clone(),
                    }),
                }
            }
        }
        rows.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.target.cmp(&b.target))
                .then_with(|| a.op.as_str().cmp(b.op.as_str()))
        });
        rows
    }
}

impl std::fmt::Debug for ObsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsPlane")
            .field("config", &self.config)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The per-invocation tag carried by a `ReplyHandle` while the plane is
/// enabled: identity, span coordinates, and the two timestamps the
/// histograms are built from.
#[derive(Debug)]
pub(crate) struct ObsTag {
    pub(crate) plane: Arc<ObsPlane>,
    pub(crate) ctx: SpanContext,
    pub(crate) target: Uid,
    pub(crate) op: OpName,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) enqueued: Instant,
    pub(crate) dequeued: Option<Instant>,
    /// Run-queue wait attributed at pickup time (zero where the scheduler
    /// stamps no resume instants).
    pub(crate) sched_ns: u64,
}

impl ObsTag {
    pub(crate) fn new(
        plane: Arc<ObsPlane>,
        ctx: SpanContext,
        target: Uid,
        op: OpName,
        from: NodeId,
        to: NodeId,
    ) -> ObsTag {
        ObsTag {
            plane,
            ctx,
            target,
            op,
            from,
            to,
            enqueued: Instant::now(),
            dequeued: None,
            sched_ns: 0,
        }
    }
}

eden_core::exported! {
    /// Aggregate mailbox occupancy across every *active* Eject, sampled under
    /// each registry shard's read lock at snapshot time. Queue depth is the
    /// overload plane's leading indicator: a bounded mailbox pinned at its
    /// capacity means admission control (not the consumer) is setting the
    /// service rate.
    pub struct MailboxSnapshot {
        /// Active mailboxes sampled.
        pub mailboxes => "eden_mailboxes_active", "Active Eject mailboxes at sample time";
        /// Envelopes queued across all active mailboxes.
        pub queued_total
            => "eden_mailbox_queued", "Envelopes queued across all active mailboxes";
        /// Deepest single mailbox at sample time.
        pub queued_max
            => "eden_mailbox_queue_depth_max", "Deepest single active mailbox at sample time";
    }
}

/// A point-in-time view of everything the kernel can report: control-plane
/// counters, the process-wide payload and stream planes, per-stage latency
/// summaries, and the span store's bookkeeping. Produced by
/// [`Kernel::metrics_snapshot`](crate::Kernel::metrics_snapshot); rendered
/// by [`prometheus_text`] and [`json_text`].
#[derive(Debug, Clone)]
pub struct KernelSnapshot {
    /// Control-plane counters.
    pub metrics: MetricsSnapshot,
    /// Process-wide payload (bytes-moved) counters.
    pub(crate) payload: PayloadSnapshot,
    /// Process-wide stream gauges.
    pub(crate) stream: StreamSnapshot,
    /// Per-(Eject, op) latency summaries (empty unless histograms are on).
    pub stages: Vec<StageSummary>,
    /// Spans currently held in the span store.
    pub spans_recorded: u64,
    /// Spans evicted from the span store.
    pub spans_dropped: u64,
    /// Density-plane gauges: resident/parked Ejects, worker pool state.
    pub sched: SchedSnapshot,
    /// Durability-plane gauges from the stable store backend: segment
    /// count, log bytes, compactions and fsyncs (all zero for memory
    /// backends).
    pub stable: crate::stable::StableStats,
    /// Overload-plane gauges: mailbox occupancy across active Ejects.
    pub mailbox: MailboxSnapshot,
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Every figure of a [`KernelSnapshot`] as (metric name, help, value) rows —
/// the one list both text renderers iterate. Each plane's rows come from its
/// declaration ([`eden_core::exported!`]); the four figures that are not a
/// plain field follow the stream's.
fn rows(snap: &KernelSnapshot) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
    let derived = [
        (
            "eden_stream_records_in_flight",
            "Records emitted but not yet collected",
            snap.stream.records_in_flight(),
        ),
        (
            "eden_streams_active",
            "Streams currently open",
            snap.stream.streams_active(),
        ),
        (
            "eden_spans_recorded",
            "Spans currently held in the span store",
            snap.spans_recorded,
        ),
        (
            "eden_spans_dropped_total",
            "Spans evicted from the span store",
            snap.spans_dropped,
        ),
    ];
    snap.metrics
        .rows()
        .chain(snap.payload.rows())
        .chain(snap.stream.rows())
        .chain(derived)
        .chain(snap.sched.rows())
        .chain(snap.mailbox.rows())
        .chain(snap.stable.rows())
}

/// A row's kind, read from its name: `_total` is a counter, any other a gauge.
fn kind(name: &str) -> &'static str {
    if name.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    }
}

/// Render a snapshot in the Prometheus text exposition format (version
/// 0.0.4): `# HELP` / `# TYPE` headers, counters suffixed `_total`, stage
/// latencies as summaries with `quantile` labels, all in seconds.
pub fn prometheus_text(snap: &KernelSnapshot) -> String {
    let mut out = String::new();
    for (name, help, value) in rows(snap) {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {}\n{name} {value}\n",
            kind(name)
        ));
    }
    type HistPicker = fn(&StageSummary) -> &Histogram;
    let pickers: [(&str, &str, HistPicker); 3] = [
        (
            "eden_stage_queue_seconds",
            "Mailbox wait per (Eject, op)",
            |s| &s.queue,
        ),
        (
            "eden_stage_sched_seconds",
            "Run-queue wait per (Eject, op)",
            |s| &s.sched,
        ),
        (
            "eden_stage_service_seconds",
            "Service time (dequeue to reply) per (Eject, op)",
            |s| &s.service,
        ),
    ];
    for (name, help, pick) in pickers {
        if snap.stages.is_empty() {
            continue;
        }
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
        for stage in &snap.stages {
            let hist = pick(stage);
            let eject = escape_label(&stage.target.to_string());
            let op = escape_label(stage.op.as_str());
            for (q, v) in [(0.5, hist.p50_ns()), (0.99, hist.p99_ns())] {
                out.push_str(&format!(
                    "{name}{{eject=\"{eject}\",op=\"{op}\",quantile=\"{q}\"}} {}\n",
                    v as f64 / 1e9
                ));
            }
            out.push_str(&format!(
                "{name}_sum{{eject=\"{eject}\",op=\"{op}\"}} {}\n",
                hist.sum_ns as f64 / 1e9
            ));
            out.push_str(&format!(
                "{name}_count{{eject=\"{eject}\",op=\"{op}\"}} {}\n",
                hist.count()
            ));
        }
    }
    out
}

/// Render a snapshot as a JSON object mirroring [`prometheus_text`]'s
/// content: `counters`, `gauges`, and a `stages` array with p50/p99 for
/// queue wait and service time (nanoseconds).
pub fn json_text(snap: &KernelSnapshot) -> String {
    let mut out = String::from("{");
    for section in ["counter", "gauge"] {
        out.push_str(&format!("\n  \"{section}s\": {{"));
        let mut sep = "";
        for (name, _, value) in rows(snap).filter(|row| kind(row.0) == section) {
            out.push_str(&format!("{sep}\n    \"{name}\": {value}"));
            sep = ",";
        }
        out.push_str("\n  },");
    }
    out.push_str("\n  \"stages\": [");
    for (i, stage) in snap.stages.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!(
            concat!(
                "{}\n    {{\"eject\": \"{}\", \"op\": \"{}\", \"count\": {}, ",
                "\"queue_p50_ns\": {}, \"queue_p99_ns\": {}, ",
                "\"sched_p50_ns\": {}, \"sched_p99_ns\": {}, ",
                "\"service_p50_ns\": {}, \"service_p99_ns\": {}}}"
            ),
            sep,
            escape_json(&stage.target.to_string()),
            escape_json(stage.op.as_str()),
            stage.count,
            stage.queue.p50_ns(),
            stage.queue.p99_ns(),
            stage.sched.p50_ns(),
            stage.sched.p99_ns(),
            stage.service.p50_ns(),
            stage.service.p99_ns(),
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Render spans as Chrome `trace_event` JSON (the format `chrome://tracing`
/// and Perfetto open): one complete (`"X"`) event per invocation, rows keyed
/// by target Eject, with the causal coordinates in `args`.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!(
            concat!(
                "{}\n  {{\"name\":\"{}\",\"cat\":\"invocation\",\"ph\":\"X\",",
                "\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},",
                "\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\"hop\":{},",
                "\"target\":\"{}\",\"queue_us\":{},\"sched_us\":{},",
                "\"from_node\":{},\"to_node\":{},\"ok\":{}}}}}"
            ),
            sep,
            escape_json(s.op.as_str()),
            s.start_ns / 1_000,
            ((s.queue_ns + s.sched_ns + s.service_ns) / 1_000).max(1),
            s.trace,
            s.target.seq(),
            s.trace,
            s.span,
            s.parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string()),
            s.hop,
            escape_json(&s.target.to_string()),
            s.queue_ns / 1_000,
            s.sched_ns / 1_000,
            s.from.0,
            s.to.0,
            s.ok,
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Render spans and lifecycle records as one history, a line an entry,
/// oldest first — the shell's `trace`, and what a failing test prints. A
/// span's line says `remote` when the delivery crossed nodes and `failed`
/// when its reply was not `Ok`.
pub fn render_events(spans: &[SpanRecord], lifecycle: &[LifecycleRecord]) -> Vec<String> {
    let span_lines = spans.iter().map(|s| {
        let remote = if s.from != s.to { ", remote" } else { "" };
        let failed = if s.ok { "" } else { " failed" };
        let line = format!(
            "invoke {} -> {} (node {} -> {}{remote}){failed}",
            s.op, s.target, s.from.0, s.to.0
        );
        (s.start_ns, line)
    });
    let lifecycle_lines = lifecycle.iter().map(|l| {
        let line = match l.event {
            Lifecycle::Activate { uid, type_name } => format!("activate {uid} ({type_name})"),
            Lifecycle::Stop { uid, crashed } => {
                format!("stop {uid}{}", if crashed { " (crashed)" } else { "" })
            }
        };
        (l.at_ns, line)
    });
    let mut lines: Vec<(u64, String)> = span_lines.chain(lifecycle_lines).collect();
    lines.sort_by_key(|(at_ns, _)| *at_ns);
    lines
        .into_iter()
        .map(|(at_ns, line)| format!("[{:>12.3} us] {line}", at_ns as f64 / 1e3))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn histogram_quantiles_order() {
        let mut h = Histogram::new();
        for ns in [10, 12, 14, 100, 5_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.p50_ns();
        let p99 = h.p99_ns();
        assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");
        // The median sample (14) lives in bucket [8, 16); its upper bound.
        assert_eq!(p50, 16);
        // The top sample (5000) lives in [4096, 8192).
        assert_eq!(p99, 8192);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p99_ns(), 0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(8);
        b.record(8);
        b.record(1024);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.p99_ns(), 2048);
    }

    #[test]
    fn span_store_bounds_and_counts_drops() {
        let plane = ObsPlane::new(ObsConfig {
            spans: true,
            histograms: false,
            span_capacity: OBS_SHARDS, // one slot per shard
        });
        let uid = Uid::fresh();
        for _ in 0..3 {
            let tag = ObsTag::new(
                Arc::new(ObsPlane::new(ObsConfig::off())), // unused by complete()
                SpanContext::root(),
                uid,
                OpName::from("Transfer"),
                NodeId(0),
                NodeId(0),
            );
            plane.complete(&tag, true);
            // (ObsTag::new zero-initialises sched_ns: an unstamped span
            // carves a zero sched stage.)
        }
        // All three landed in one shard of capacity 1: shards are keyed by
        // recording thread, and this test has one.
        assert_eq!(plane.spans().len(), 1);
        assert_eq!(plane.spans_dropped(), 2);
    }

    #[test]
    fn lifecycle_ring_is_bounded_beside_the_spans_and_off_with_them() {
        let plane = ObsPlane::new(ObsConfig {
            spans: true,
            histograms: false,
            span_capacity: 2 * OBS_SHARDS, // two slots per shard
        });
        let uid = Uid::fresh();
        plane.record_faulted(
            SpanContext::root(),
            uid,
            &OpName::from("Transfer"),
            NodeId(0),
        );
        plane.record_lifecycle(Lifecycle::Activate {
            uid,
            type_name: "File",
        });
        for crashed in [false, true] {
            plane.record_lifecycle(Lifecycle::Stop { uid, crashed });
        }
        let (held, evicted) = plane.lifecycle();
        assert_eq!((held.len(), evicted), (2, 1), "the activation was evicted");
        assert!(held.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(held[1].event, Lifecycle::Stop { uid, crashed: true });
        // The span is where it was, and no lifecycle record was counted as one.
        assert_eq!((plane.span_count(), plane.spans_dropped()), (1, 0));

        let histograms_only = ObsPlane::new(ObsConfig {
            spans: false,
            histograms: true,
            span_capacity: 64,
        });
        histograms_only.record_lifecycle(Lifecycle::Stop { uid, crashed: true });
        assert_eq!(histograms_only.lifecycle(), (Vec::new(), 0));
    }

    #[test]
    fn events_render_merged_by_time() {
        let uid = Uid::fresh();
        let span = |start_ns, to, ok| SpanRecord {
            trace: 1,
            span: 2,
            parent: None,
            hop: 0,
            target: uid,
            op: OpName::from("Transfer"),
            from: NodeId(0),
            to,
            start_ns,
            queue_ns: 0,
            sched_ns: 0,
            service_ns: 0,
            ok,
        };
        let lines = render_events(
            &[span(2_000, NodeId(1), true), span(4_000, NodeId(0), false)],
            &[
                LifecycleRecord {
                    at_ns: 1_000,
                    event: Lifecycle::Activate {
                        uid,
                        type_name: "File",
                    },
                },
                LifecycleRecord {
                    at_ns: 3_000,
                    event: Lifecycle::Stop { uid, crashed: true },
                },
            ],
        );
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].contains("activate") && lines[0].contains("(File)"),
            "{lines:?}"
        );
        assert!(
            lines[1].contains("invoke Transfer") && lines[1].contains("remote"),
            "{lines:?}"
        );
        assert!(
            lines[2].contains("stop") && lines[2].contains("(crashed)"),
            "{lines:?}"
        );
        assert!(
            !lines[3].contains("remote") && lines[3].ends_with("failed"),
            "{lines:?}"
        );
    }

    /// A snapshot with its own value in every field, so a renderer that
    /// swapped two figures would show it.
    fn populated() -> KernelSnapshot {
        let mut n = 100;
        let mut next = || {
            n += 7;
            n
        };
        // Its streams opened and closed are private: none is active.
        let mut stream = StreamSnapshot::default();
        (stream.records_emitted, stream.records_collected) = (10_000 + next(), next());
        KernelSnapshot {
            metrics: MetricsSnapshot {
                invocations: next(),
                remote_invocations: next(),
                replies: next(),
                deferred_replies: next(),
                internal_messages: next(),
                bytes_invoked: next(),
                bytes_replied: next(),
                ejects_created: next(),
                activations: next(),
                deactivations: next(),
                checkpoints: next(),
                checkpoint_bytes: next(),
                journal_entries: next(),
                crashes: next(),
                route_cache_hits: next(),
                route_cache_misses: next(),
                retries: next(),
                faults_injected: next(),
                reactivations: next(),
                recovered_streams: next(),
                successes: next(),
                fatal_failures: next(),
                sheds_newest: next(),
                inline_handoffs: next(),
                monitor_rescues: next(),
                idle_timeouts_with_work: next(),
                spares_spawned: next(),
                parks: next(),
                wakes: next(),
                pickups: next(),
            },
            payload: PayloadSnapshot {
                payload_bytes_moved: next(),
                payload_copies: next(),
                cow_breaks: next(),
                payload_shares: next(),
            },
            stream,
            stages: Vec::new(),
            spans_recorded: next(),
            spans_dropped: next(),
            sched: SchedSnapshot {
                resident_ejects: next(),
                parked_ejects: next(),
                sched_steals: next(),
                workers: next(),
                workers_blocked: next(),
                workers_idle: next(),
                queued_tasks: next(),
            },
            stable: crate::stable::StableStats {
                records: next(),
                bytes: next(),
                segments_live: next(),
                log_bytes: next(),
                compactions: next(),
                fsyncs: next(),
            },
            mailbox: MailboxSnapshot {
                mailboxes: next(),
                queued_total: next(),
                queued_max: next(),
            },
        }
    }

    /// The exported gauges, by name: every other row is a counter. The
    /// renderers read a row's kind from its name, so this list is what holds
    /// a gauge to a name without `_total`, and a counter to one with it.
    const GAUGES: [&str; 15] = [
        "eden_stream_records_in_flight",
        "eden_streams_active",
        "eden_spans_recorded",
        "eden_resident_ejects",
        "eden_parked_ejects",
        "eden_sched_workers",
        "eden_sched_workers_blocked",
        "eden_sched_workers_idle",
        "eden_sched_queued_tasks",
        "eden_mailboxes_active",
        "eden_mailbox_queued",
        "eden_mailbox_queue_depth_max",
        "eden_stable_records",
        "eden_stable_segments_live",
        "eden_stable_log_bytes",
    ];

    #[test]
    fn the_exported_set_is_well_formed() {
        let snap = populated();
        let rows: Vec<_> = rows(&snap).collect();
        let names: std::collections::BTreeSet<&str> = rows.iter().map(|r| r.0).collect();
        // Declared with a name: 27 counters of the table, 4 payload, 2 stream,
        // 6 scheduler, 3 mailbox and 5 stable rows; and the 4 derived figures.
        assert_eq!((rows.len(), names.len()), (51, 51), "{names:?}");
        for (name, help, _) in &rows {
            assert!(name.starts_with("eden_"), "{name}");
            assert!(!help.is_empty(), "{name} has no help");
            let counter = !GAUGES.contains(name);
            assert_eq!(name.ends_with("_total"), counter, "{name}");
        }
        assert!(GAUGES.iter().all(|gauge| names.contains(gauge)));
    }

    /// Both renderers print every declared row once, with the same value,
    /// and the JSON files it under the kind the Prometheus text types it.
    #[test]
    fn prometheus_and_json_agree() {
        let snap = populated();
        let prom = prometheus_text(&snap);
        let (mut types, mut sampled) = (BTreeMap::new(), BTreeMap::new());
        for line in prom.lines() {
            if let Some(typed) = line.strip_prefix("# TYPE ") {
                let (name, kind) = typed.split_once(' ').expect("a typed name");
                assert!(types.insert(name, kind).is_none(), "{name} typed twice");
            } else if !line.starts_with('#') {
                let (name, value) = line.split_once(' ').expect("a sample");
                let value: u64 = value.parse().expect("an integer sample");
                assert!(
                    sampled.insert(name, value).is_none(),
                    "{name} sampled twice"
                );
            }
        }
        let json = json_text(&snap);
        let (mut section, mut listed) = ("", BTreeMap::new());
        for line in json.lines().map(str::trim) {
            if let Some(key) = line.strip_suffix(" {").or(line.strip_suffix(" [")) {
                section = key.trim_end_matches(':').trim_matches('"');
            } else if let Some((name, value)) = line.trim_end_matches(',').split_once(": ") {
                let name = name.trim_matches('"');
                assert_eq!(format!("{}s", types[name]), section, "{name}");
                let value: u64 = value.parse().expect("an integer value");
                assert!(listed.insert(name, value).is_none(), "{name} listed twice");
            }
        }
        assert_eq!(sampled, listed);
        let declared: BTreeMap<&str, u64> = rows(&snap).map(|(name, _, v)| (name, v)).collect();
        assert_eq!(sampled, declared);
        let values: std::collections::BTreeSet<u64> = declared.values().copied().collect();
        assert_eq!(values.len(), declared.len(), "two figures read alike");
    }

    #[test]
    fn renderers_cover_every_counter() {
        let snap = KernelSnapshot {
            metrics: MetricsSnapshot::default(),
            payload: PayloadSnapshot::default(),
            stream: StreamSnapshot::default(),
            stages: Vec::new(),
            spans_recorded: 0,
            spans_dropped: 0,
            sched: SchedSnapshot::default(),
            stable: crate::stable::StableStats::default(),
            mailbox: MailboxSnapshot::default(),
        };
        let prom = prometheus_text(&snap);
        let json = json_text(&snap);
        for (name, _, _) in rows(&snap) {
            assert!(prom.contains(name), "prometheus missing {name}");
            assert!(json.contains(name), "json missing {name}");
        }
        // The exported counter names, in order: dashboards key on them.
        let names: Vec<&str> = rows(&snap)
            .map(|r| r.0)
            .filter(|name| kind(name) == "counter")
            .collect();
        let golden = [
            "eden_invocations_total",
            "eden_remote_invocations_total",
            "eden_replies_total",
            "eden_deferred_replies_total",
            "eden_internal_messages_total",
            "eden_bytes_invoked_total",
            "eden_bytes_replied_total",
            "eden_ejects_created_total",
            "eden_activations_total",
            "eden_deactivations_total",
            "eden_checkpoints_total",
            "eden_checkpoint_bytes_total",
            "eden_journal_entries_total",
            "eden_crashes_total",
            "eden_route_cache_hits_total",
            "eden_route_cache_misses_total",
            "eden_retries_total",
            "eden_faults_injected_total",
            "eden_reactivations_total",
            "eden_recovered_streams_total",
            "eden_invocation_successes_total",
            "eden_invocation_fatal_failures_total",
            "eden_mailbox_sheds_total",
            "eden_sched_inline_handoffs_total",
            "eden_sched_monitor_rescues_total",
            "eden_sched_idle_timeouts_with_work_total",
            "eden_sched_spares_spawned_total",
            "eden_payload_bytes_moved_total",
            "eden_payload_copies_total",
            "eden_payload_cow_breaks_total",
            "eden_payload_shares_total",
            "eden_stream_records_emitted_total",
            "eden_stream_records_collected_total",
            "eden_spans_dropped_total",
            "eden_stable_compactions_total",
            "eden_stable_fsyncs_total",
        ];
        assert_eq!(names, golden);
        // One shed policy, so the sheds are one plain counter, unlabelled.
        assert!(prom.contains("\neden_mailbox_sheds_total 0\n"), "{prom}");
        assert!(!prom.contains("policy="), "{prom}");
        assert!(prom.contains("# TYPE eden_invocations_total counter"));
        assert!(prom.contains("# TYPE eden_mailbox_sheds_total counter"));
        assert!(prom.contains("# TYPE eden_streams_active gauge"));
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = vec![SpanRecord {
            trace: 7,
            span: 8,
            parent: None,
            hop: 0,
            target: Uid::fresh(),
            op: OpName::from("Transfer"),
            from: NodeId(0),
            to: NodeId(1),
            start_ns: 2_000,
            queue_ns: 1_000,
            sched_ns: 500,
            service_ns: 3_000,
            ok: true,
        }];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"trace\":7"));
    }
}
