//! Metering: the quantities behind the paper's efficiency argument.
//!
//! §4 of the paper argues the "read only" discipline halves the invocations
//! needed to move a datum through a pipeline (n+1 instead of 2n+2) and
//! eliminates the n+1 passive-buffer Ejects, at the cost of internal
//! processes and communication inside each Eject: "Processes provided within
//! the programming language are likely to be more efficient than the
//! processes of the underlying machine... interprocess communication within
//! an Eject is likely to be much more efficient than invocation."
//!
//! To reproduce that comparison we count every event of both kinds and feed
//! the counts through an explicit [`CostModel`]. Experiments can then sweep
//! the invocation : internal-IPC cost ratio (experiment E8) instead of being
//! hostage to one machine's timings.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Counter shards per `Metrics` instance. Power of two; indexed by a
/// cheap per-thread id so concurrent recorders from different threads
/// land on different cache lines.
const METRIC_SHARDS: usize = 16;

static NEXT_METRIC_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's dense index, assigned on first use — one shared
    /// `fetch_add` per thread lifetime, not per event.
    static METRIC_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn metric_slot() -> usize {
    METRIC_SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            v = NEXT_METRIC_SLOT.fetch_add(1, Ordering::Relaxed);
            slot.set(v);
        }
        v
    })
}

/// Shared event counters. Cheap to clone (an `Arc` bump); updated with
/// relaxed atomics — the counts are statistics, not synchronisation.
///
/// Counters are sharded across cache-line-aligned blocks keyed by a
/// per-thread index: several counters fire on *every* delivery, and a
/// single shared block would bounce its lines between all scheduler
/// workers. [`snapshot`](Metrics::snapshot) folds the shards.
#[derive(Clone, Debug)]
pub struct Metrics {
    shards: Arc<[CounterShard]>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            shards: (0..METRIC_SHARDS).map(|_| CounterShard::default()).collect(),
        }
    }
}

/// One cache-line-aligned block of counters (128 bytes covers x86's
/// adjacent-line prefetch pairing).
#[repr(align(128))]
#[derive(Default, Debug)]
struct CounterShard(Counters);

#[derive(Default, Debug)]
struct Counters {
    invocations: AtomicU64,
    remote_invocations: AtomicU64,
    replies: AtomicU64,
    deferred_replies: AtomicU64,
    internal_messages: AtomicU64,
    bytes_invoked: AtomicU64,
    bytes_replied: AtomicU64,
    ejects_created: AtomicU64,
    activations: AtomicU64,
    deactivations: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_bytes: AtomicU64,
    journal_entries: AtomicU64,
    crashes: AtomicU64,
    route_cache_hits: AtomicU64,
    route_cache_misses: AtomicU64,
    retries: AtomicU64,
    faults_injected: AtomicU64,
    reactivations: AtomicU64,
    recovered_streams: AtomicU64,
    successes: AtomicU64,
    fatal_failures: AtomicU64,
    sheds_newest: AtomicU64,
    sheds_oldest: AtomicU64,
    sheds_expired: AtomicU64,
    sheds_park_timeout: AtomicU64,
}

impl Metrics {
    /// Create a fresh, zeroed set of counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record an invocation being sent, with its parameter payload size.
    pub fn record_invocation(&self, payload_bytes: usize) {
        self.cell().invocations.fetch_add(1, Ordering::Relaxed);
        self.cell()
            .bytes_invoked
            .fetch_add(payload_bytes as u64, Ordering::Relaxed);
    }

    /// Record that the most recent invocation crossed simulated nodes.
    pub fn record_remote_invocation(&self) {
        self.cell().remote_invocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a reply being delivered, with its payload size.
    pub fn record_reply(&self, payload_bytes: usize) {
        self.cell().replies.fetch_add(1, Ordering::Relaxed);
        self.cell()
            .bytes_replied
            .fetch_add(payload_bytes as u64, Ordering::Relaxed);
    }

    /// Record a reply being parked for later (passive output in action).
    pub fn record_deferred_reply(&self) {
        self.cell().deferred_replies.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one intra-Eject message (language-level process communication).
    pub fn record_internal_message(&self) {
        self.cell().internal_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the creation of an Eject.
    pub fn record_eject_created(&self) {
        self.cell().ejects_created.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an activation (including reactivation from a checkpoint).
    pub fn record_activation(&self) {
        self.cell().activations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an explicit deactivation.
    pub fn record_deactivation(&self) {
        self.cell().deactivations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a durable write of `bytes` to the stable store: a whole
    /// checkpoint, or (`entry`) one journal entry beside it.
    pub fn record_checkpoint(&self, bytes: usize, entry: bool) {
        let cell = self.cell();
        cell.checkpoints.fetch_add(1, Ordering::Relaxed);
        cell.checkpoint_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        cell.journal_entries.fetch_add(entry as u64, Ordering::Relaxed);
    }

    /// Record a simulated crash.
    pub fn record_crash(&self) {
        self.cell().crashes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an invocation delivered through a cached route (the kernel
    /// registry was never consulted).
    pub fn record_route_cache_hit(&self) {
        self.cell().route_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an invocation that had to resolve (or re-resolve) its target
    /// through the registry: cold cache or stale route.
    pub fn record_route_cache_miss(&self) {
        self.cell().route_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one re-sent invocation (the retry policy fired).
    pub fn record_retry(&self) {
        self.cell().retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one fault deliberately injected on the invocation path.
    pub fn record_fault_injected(&self) {
        self.cell().faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a reactivation: an activation that rebuilt an Eject from its
    /// passive representation (also counted in `activations`).
    pub fn record_reactivation(&self) {
        self.cell().reactivations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a stream stage that resumed from its checkpoint after a
    /// crash, picking up at the last acknowledged position.
    pub fn record_recovered_stream(&self) {
        self.cell().recovered_streams.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the terminal success of one *logical* invocation. Together
    /// with [`record_fatal_failure`](Metrics::record_fatal_failure) this
    /// forms the outcome ledger: once every in-flight invocation has
    /// resolved, `invocations == successes + fatal_failures` regardless of
    /// how many times any of them was retried (retries re-send an existing
    /// invocation; they never open a new ledger entry).
    pub fn record_success(&self) {
        self.cell().successes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the terminal failure of one logical invocation: a fatal
    /// error, retry exhaustion, deadline expiry, or abandonment.
    pub fn record_fatal_failure(&self) {
        self.cell().fatal_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an arriving invocation turned away at a full bounded mailbox
    /// (`ShedPolicy::RejectNewest`, or `DeadlineDrop` with nothing expired).
    pub fn record_shed_newest(&self) {
        self.cell().sheds_newest.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a queued invocation evicted to admit a newer arrival
    /// (`ShedPolicy::RejectOldest`).
    pub fn record_shed_oldest(&self) {
        self.cell().sheds_oldest.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a queued invocation dropped because its admission deadline
    /// had already expired (`ShedPolicy::DeadlineDrop`).
    pub fn record_shed_expired(&self) {
        self.cell().sheds_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a sender whose deadline-bounded park on a full mailbox timed
    /// out before space freed (`ShedPolicy::Park` under an invocation
    /// deadline).
    pub fn record_shed_park_timeout(&self) {
        self.cell().sheds_park_timeout.fetch_add(1, Ordering::Relaxed);
    }

    /// The calling thread's counter block.
    fn cell(&self) -> &Counters {
        &self.shards[metric_slot() & (METRIC_SHARDS - 1)].0
    }

    /// Capture the current counter values, folded across every shard.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for shard in self.shards.iter() {
            let c = &shard.0;
            s.invocations += c.invocations.load(Ordering::Relaxed);
            s.remote_invocations += c.remote_invocations.load(Ordering::Relaxed);
            s.replies += c.replies.load(Ordering::Relaxed);
            s.deferred_replies += c.deferred_replies.load(Ordering::Relaxed);
            s.internal_messages += c.internal_messages.load(Ordering::Relaxed);
            s.bytes_invoked += c.bytes_invoked.load(Ordering::Relaxed);
            s.bytes_replied += c.bytes_replied.load(Ordering::Relaxed);
            s.ejects_created += c.ejects_created.load(Ordering::Relaxed);
            s.activations += c.activations.load(Ordering::Relaxed);
            s.deactivations += c.deactivations.load(Ordering::Relaxed);
            s.checkpoints += c.checkpoints.load(Ordering::Relaxed);
            s.checkpoint_bytes += c.checkpoint_bytes.load(Ordering::Relaxed);
            s.journal_entries += c.journal_entries.load(Ordering::Relaxed);
            s.crashes += c.crashes.load(Ordering::Relaxed);
            s.route_cache_hits += c.route_cache_hits.load(Ordering::Relaxed);
            s.route_cache_misses += c.route_cache_misses.load(Ordering::Relaxed);
            s.retries += c.retries.load(Ordering::Relaxed);
            s.faults_injected += c.faults_injected.load(Ordering::Relaxed);
            s.reactivations += c.reactivations.load(Ordering::Relaxed);
            s.recovered_streams += c.recovered_streams.load(Ordering::Relaxed);
            s.successes += c.successes.load(Ordering::Relaxed);
            s.fatal_failures += c.fatal_failures.load(Ordering::Relaxed);
            s.sheds_newest += c.sheds_newest.load(Ordering::Relaxed);
            s.sheds_oldest += c.sheds_oldest.load(Ordering::Relaxed);
            s.sheds_expired += c.sheds_expired.load(Ordering::Relaxed);
            s.sheds_park_timeout += c.sheds_park_timeout.load(Ordering::Relaxed);
        }
        s
    }
}

/// A point-in-time copy of the counters. Subtract two snapshots to meter a
/// region of execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // Field names are self-describing counter names.
pub struct MetricsSnapshot {
    pub invocations: u64,
    pub remote_invocations: u64,
    pub replies: u64,
    pub deferred_replies: u64,
    pub internal_messages: u64,
    pub bytes_invoked: u64,
    pub bytes_replied: u64,
    pub ejects_created: u64,
    pub activations: u64,
    pub deactivations: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub journal_entries: u64,
    pub crashes: u64,
    pub route_cache_hits: u64,
    pub route_cache_misses: u64,
    pub retries: u64,
    pub faults_injected: u64,
    pub reactivations: u64,
    pub recovered_streams: u64,
    pub successes: u64,
    pub fatal_failures: u64,
    pub sheds_newest: u64,
    pub sheds_oldest: u64,
    pub sheds_expired: u64,
    pub sheds_park_timeout: u64,
}

impl MetricsSnapshot {
    /// Events that occurred between `earlier` and `self`.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            invocations: self.invocations - earlier.invocations,
            remote_invocations: self.remote_invocations - earlier.remote_invocations,
            replies: self.replies - earlier.replies,
            deferred_replies: self.deferred_replies - earlier.deferred_replies,
            internal_messages: self.internal_messages - earlier.internal_messages,
            bytes_invoked: self.bytes_invoked - earlier.bytes_invoked,
            bytes_replied: self.bytes_replied - earlier.bytes_replied,
            ejects_created: self.ejects_created - earlier.ejects_created,
            activations: self.activations - earlier.activations,
            deactivations: self.deactivations - earlier.deactivations,
            checkpoints: self.checkpoints - earlier.checkpoints,
            checkpoint_bytes: self.checkpoint_bytes - earlier.checkpoint_bytes,
            journal_entries: self.journal_entries - earlier.journal_entries,
            crashes: self.crashes - earlier.crashes,
            route_cache_hits: self.route_cache_hits - earlier.route_cache_hits,
            route_cache_misses: self.route_cache_misses - earlier.route_cache_misses,
            retries: self.retries - earlier.retries,
            faults_injected: self.faults_injected - earlier.faults_injected,
            reactivations: self.reactivations - earlier.reactivations,
            recovered_streams: self.recovered_streams - earlier.recovered_streams,
            successes: self.successes - earlier.successes,
            fatal_failures: self.fatal_failures - earlier.fatal_failures,
            sheds_newest: self.sheds_newest - earlier.sheds_newest,
            sheds_oldest: self.sheds_oldest - earlier.sheds_oldest,
            sheds_expired: self.sheds_expired - earlier.sheds_expired,
            sheds_park_timeout: self.sheds_park_timeout - earlier.sheds_park_timeout,
        }
    }

    /// Total invocations shed by admission control, across every policy.
    pub fn sheds_total(&self) -> u64 {
        self.sheds_newest + self.sheds_oldest + self.sheds_expired + self.sheds_park_timeout
    }

    /// Total bytes moved in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_invoked + self.bytes_replied
    }
}

/// Converts event counts into modeled time.
///
/// All costs are in abstract nanoseconds. The absolute scale is arbitrary;
/// what the experiments care about is the *ratio* of invocation cost to
/// internal-IPC cost, which the paper argues must favour fewer invocations
/// ("the cost of an invocation must inevitably be higher than that of a
/// system call... because invocation is location-independent").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one invocation+reply round trip (marshalling, location
    /// lookup, cross-address-space transfer).
    pub invocation_ns: f64,
    /// Cost of one intra-Eject, language-level process message.
    pub internal_msg_ns: f64,
    /// Cost per payload byte moved across an Eject boundary.
    pub per_byte_ns: f64,
    /// Cost of activating an Eject (process creation, checkpoint read).
    pub activation_ns: f64,
    /// Additional cost when an invocation crosses simulated machines
    /// (the paper's VAXen on a 10 Mbit Ethernet).
    pub remote_extra_ns: f64,
}

impl CostModel {
    /// A model with the flavour of the 1983 Eden prototype: invocations are
    /// remote-procedure-call class (~1 ms class events), two orders of
    /// magnitude more expensive than a language-level process message.
    pub fn eden_1983() -> Self {
        CostModel {
            invocation_ns: 1_000_000.0,
            internal_msg_ns: 10_000.0,
            per_byte_ns: 800.0,
            activation_ns: 50_000_000.0,
            remote_extra_ns: 2_000_000.0,
        }
    }

    /// A model where invocations and internal messages cost the same —
    /// the regime in which the read-only discipline's advantage vanishes.
    pub fn uniform() -> Self {
        CostModel {
            invocation_ns: 10_000.0,
            internal_msg_ns: 10_000.0,
            per_byte_ns: 0.0,
            activation_ns: 0.0,
            remote_extra_ns: 0.0,
        }
    }

    /// A model with the given invocation : internal-message cost ratio,
    /// holding the internal message cost fixed. Used by experiment E8.
    pub fn with_ratio(ratio: f64) -> Self {
        CostModel {
            invocation_ns: 10_000.0 * ratio,
            internal_msg_ns: 10_000.0,
            per_byte_ns: 0.0,
            activation_ns: 0.0,
            remote_extra_ns: 0.0,
        }
    }

    /// Total modeled nanoseconds for the events in `snap`.
    pub fn modeled_ns(&self, snap: &MetricsSnapshot) -> f64 {
        snap.invocations as f64 * self.invocation_ns
            + snap.remote_invocations as f64 * self.remote_extra_ns
            + snap.internal_messages as f64 * self.internal_msg_ns
            + snap.bytes_total() as f64 * self.per_byte_ns
            + snap.activations as f64 * self.activation_ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::eden_1983()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.record_invocation(10);
        m.record_invocation(5);
        m.record_reply(3);
        m.record_internal_message();
        m.record_deferred_reply();
        let s = m.snapshot();
        assert_eq!(s.invocations, 2);
        assert_eq!(s.bytes_invoked, 15);
        assert_eq!(s.replies, 1);
        assert_eq!(s.bytes_replied, 3);
        assert_eq!(s.internal_messages, 1);
        assert_eq!(s.deferred_replies, 1);
        assert_eq!(s.bytes_total(), 18);
    }

    #[test]
    fn clones_share_counters() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.record_invocation(1);
        assert_eq!(m.snapshot().invocations, 1);
    }

    #[test]
    fn snapshot_diff() {
        let m = Metrics::new();
        m.record_invocation(10);
        let before = m.snapshot();
        m.record_invocation(10);
        m.record_checkpoint(40, false);
        m.record_checkpoint(7, true);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.invocations, 1);
        assert_eq!(
            (delta.checkpoints, delta.checkpoint_bytes, delta.journal_entries),
            (2, 47, 1)
        );
        assert_eq!(delta.bytes_invoked, 10);
    }

    #[test]
    fn fault_plane_counters_accumulate_and_diff() {
        let m = Metrics::new();
        m.record_retry();
        let before = m.snapshot();
        m.record_retry();
        m.record_fault_injected();
        m.record_reactivation();
        m.record_recovered_stream();
        let s = m.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.reactivations, 1);
        assert_eq!(s.recovered_streams, 1);
        let delta = s.since(&before);
        assert_eq!(delta.retries, 1);
        assert_eq!(delta.faults_injected, 1);
        assert_eq!(delta.reactivations, 1);
        assert_eq!(delta.recovered_streams, 1);
    }

    #[test]
    fn outcome_ledger_accumulates_and_diffs() {
        let m = Metrics::new();
        m.record_success();
        let before = m.snapshot();
        m.record_success();
        m.record_fatal_failure();
        let s = m.snapshot();
        assert_eq!(s.successes, 2);
        assert_eq!(s.fatal_failures, 1);
        let delta = s.since(&before);
        assert_eq!(delta.successes, 1);
        assert_eq!(delta.fatal_failures, 1);
    }

    #[test]
    fn shed_counters_accumulate_and_diff() {
        let m = Metrics::new();
        m.record_shed_newest();
        let before = m.snapshot();
        m.record_shed_newest();
        m.record_shed_oldest();
        m.record_shed_expired();
        m.record_shed_park_timeout();
        let s = m.snapshot();
        assert_eq!(s.sheds_newest, 2);
        assert_eq!(s.sheds_oldest, 1);
        assert_eq!(s.sheds_expired, 1);
        assert_eq!(s.sheds_park_timeout, 1);
        assert_eq!(s.sheds_total(), 5);
        let delta = s.since(&before);
        assert_eq!(delta.sheds_newest, 1);
        assert_eq!(delta.sheds_total(), 4);
    }

    #[test]
    fn cost_model_weighs_invocations() {
        let snap = MetricsSnapshot {
            invocations: 10,
            internal_messages: 100,
            ..Default::default()
        };
        let eden = CostModel::eden_1983();
        let uniform = CostModel::uniform();
        // Under the Eden model, 10 invocations dominate 100 internal
        // messages; under the uniform model they do not.
        assert!(eden.modeled_ns(&snap) > 10.0 * eden.internal_msg_ns * 100.0 / 2.0);
        assert!(uniform.modeled_ns(&snap) < eden.modeled_ns(&snap));
    }

    #[test]
    fn ratio_model_scales_linearly() {
        let snap = MetricsSnapshot {
            invocations: 1,
            ..Default::default()
        };
        let low = CostModel::with_ratio(1.0).modeled_ns(&snap);
        let high = CostModel::with_ratio(100.0).modeled_ns(&snap);
        assert!((high / low - 100.0).abs() < 1e-9);
    }
}
