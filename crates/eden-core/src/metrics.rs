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

/// The one declaration of the counters. A row is
///
/// ```text
/// /// doc
/// field [/ record_method] [=> "exported_name", "help"];
/// ```
///
/// and states a counter once: its doc comment (carried by the `Counters`
/// field and by the method), the `record_*` method that adds one to it (a
/// counter fed only by one of the three multi-counter recorders below has
/// none), and the name and help it is exported under (the `sheds_*` rows
/// have none: the renderers export them as one labelled family). It
/// expands to `Counters`, the one-counter recorders, [`Metrics::snapshot`],
/// [`MetricsSnapshot`] with [`since`](MetricsSnapshot::since) and
/// [`rows`](MetricsSnapshot::rows) — so a new counter is one row, and it
/// reaches the snapshot and every exporter by construction.
macro_rules! counters {
    ($(
        $(#[$doc:meta])*
        $field:ident $(/ $record:ident)? $(=> $name:literal, $help:literal)?;
    )*) => {
        #[derive(Default, Debug)]
        struct Counters {
            $($(#[$doc])* $field: AtomicU64,)*
        }

        impl Metrics {
            $(counters!(@record $(#[$doc])* $field $($record)?);)*

            /// Capture the current counter values, folded across every shard.
            pub fn snapshot(&self) -> MetricsSnapshot {
                let mut s = MetricsSnapshot::default();
                for shard in self.shards.iter() {
                    $(s.$field += shard.0.$field.load(Ordering::Relaxed);)*
                }
                s
            }
        }

        /// A point-in-time copy of the counters. Subtract two snapshots to
        /// meter a region of execution.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)] // Field names are self-describing counter names.
        pub struct MetricsSnapshot {
            $(pub $field: u64,)*
        }

        impl MetricsSnapshot {
            /// Events that occurred between `earlier` and `self`.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: self.$field - earlier.$field,)*
                }
            }

            /// The exported counters as (metric name, help, value) rows, in
            /// declaration order — what the text renderers iterate.
            pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
                [$(counters!(@row self.$field $(, $name, $help)?),)*]
                    .into_iter()
                    .flatten()
            }
        }
    };
    (@record $(#[$doc:meta])* $field:ident) => {};
    (@record $(#[$doc:meta])* $field:ident $record:ident) => {
        $(#[$doc])*
        pub fn $record(&self) {
            self.cell().$field.fetch_add(1, Ordering::Relaxed);
        }
    };
    (@row $value:expr) => {
        None
    };
    (@row $value:expr, $name:literal, $help:literal) => {
        Some(($name, $help, $value))
    };
}

counters! {
    /// Logical invocations sent (one a [`record_invocation`](Metrics::record_invocation)).
    invocations => "eden_invocations_total", "Logical invocations sent";
    /// Record that the most recent invocation crossed simulated nodes.
    remote_invocations / record_remote_invocation
        => "eden_remote_invocations_total", "Invocation deliveries that crossed simulated nodes";
    /// Replies delivered (one a [`record_reply`](Metrics::record_reply)).
    replies => "eden_replies_total", "Replies delivered";
    /// Record a reply being parked for later (passive output in action).
    deferred_replies / record_deferred_reply
        => "eden_deferred_replies_total", "Replies parked as passive output";
    /// Record one intra-Eject message (language-level process communication).
    internal_messages / record_internal_message
        => "eden_internal_messages_total", "Intra-Eject process messages";
    /// Parameter payload bytes sent with invocations.
    bytes_invoked => "eden_bytes_invoked_total", "Payload bytes sent with invocations";
    /// Payload bytes returned with replies.
    bytes_replied => "eden_bytes_replied_total", "Payload bytes returned with replies";
    /// Record the creation of an Eject.
    ejects_created / record_eject_created => "eden_ejects_created_total", "Ejects created";
    /// Record an activation (including reactivation from a checkpoint).
    activations / record_activation
        => "eden_activations_total", "Eject activations (including reactivations)";
    /// Record an explicit deactivation.
    deactivations / record_deactivation => "eden_deactivations_total", "Explicit deactivations";
    /// Durable writes to the stable store (one a
    /// [`record_checkpoint`](Metrics::record_checkpoint)).
    checkpoints
        => "eden_checkpoints_total", "Durable writes to the stable store, checkpoints and journal entries alike";
    /// Bytes those writes handed to the stable store.
    checkpoint_bytes
        => "eden_checkpoint_bytes_total", "Bytes those writes handed to the stable store";
    /// Those writes that were a journal entry beside a checkpoint.
    journal_entries
        => "eden_journal_entries_total", "Durable writes that were a journal entry beside a checkpoint";
    /// Record a simulated crash.
    crashes / record_crash => "eden_crashes_total", "Simulated fail-stop crashes";
    /// Record an invocation delivered through a cached route (the kernel
    /// registry was never consulted).
    route_cache_hits / record_route_cache_hit
        => "eden_route_cache_hits_total", "Invocations delivered via a cached route";
    /// Record an invocation that had to resolve (or re-resolve) its target
    /// through the registry: cold cache or stale route.
    route_cache_misses / record_route_cache_miss
        => "eden_route_cache_misses_total", "Invocations that resolved through the registry";
    /// Record one re-sent invocation (the retry policy fired).
    retries / record_retry => "eden_retries_total", "Invocation re-sends by the retry policy";
    /// Record one fault deliberately injected on the invocation path.
    faults_injected / record_fault_injected
        => "eden_faults_injected_total", "Faults injected on the invocation path";
    /// Record a reactivation: an activation that rebuilt an Eject from its
    /// passive representation (also counted in `activations`).
    reactivations / record_reactivation
        => "eden_reactivations_total", "Activations from a passive representation";
    /// Record a stream stage that resumed from its checkpoint after a
    /// crash, picking up at the last acknowledged position.
    recovered_streams / record_recovered_stream
        => "eden_recovered_streams_total", "Stream stages resumed from a checkpoint";
    /// Record the terminal success of one *logical* invocation. Together
    /// with [`record_fatal_failure`](Metrics::record_fatal_failure) this
    /// forms the outcome ledger: once every in-flight invocation has
    /// resolved, `invocations == successes + fatal_failures` regardless of
    /// how many times any of them was retried (retries re-send an existing
    /// invocation; they never open a new ledger entry).
    successes / record_success
        => "eden_invocation_successes_total", "Logical invocations that terminally succeeded";
    /// Record the terminal failure of one logical invocation: a fatal
    /// error, retry exhaustion, deadline expiry, or abandonment.
    fatal_failures / record_fatal_failure
        => "eden_invocation_fatal_failures_total", "Logical invocations that terminally failed";
    /// Record an arriving invocation turned away at a full bounded mailbox
    /// (`ShedPolicy::RejectNewest`, or `DeadlineDrop` with nothing expired).
    sheds_newest / record_shed_newest;
    /// Record a queued invocation evicted to admit a newer arrival
    /// (`ShedPolicy::RejectOldest`).
    sheds_oldest / record_shed_oldest;
    /// Record a queued invocation dropped because its admission deadline
    /// had already expired (`ShedPolicy::DeadlineDrop`).
    sheds_expired / record_shed_expired;
    /// Record a sender whose deadline-bounded park on a full mailbox timed
    /// out before space freed (`ShedPolicy::Park` under an invocation
    /// deadline).
    sheds_park_timeout / record_shed_park_timeout;
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

    /// Record a reply being delivered, with its payload size.
    pub fn record_reply(&self, payload_bytes: usize) {
        self.cell().replies.fetch_add(1, Ordering::Relaxed);
        self.cell()
            .bytes_replied
            .fetch_add(payload_bytes as u64, Ordering::Relaxed);
    }

    /// Record a durable write of `bytes` to the stable store: a whole
    /// checkpoint, or (`entry`) one journal entry beside it.
    pub fn record_checkpoint(&self, bytes: usize, entry: bool) {
        let cell = self.cell();
        cell.checkpoints.fetch_add(1, Ordering::Relaxed);
        cell.checkpoint_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        cell.journal_entries.fetch_add(entry as u64, Ordering::Relaxed);
    }

    /// The calling thread's counter block.
    fn cell(&self) -> &Counters {
        &self.shards[metric_slot() & (METRIC_SHARDS - 1)].0
    }
}

impl MetricsSnapshot {
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

    /// The table expands to what was written by hand: every recorder once,
    /// against a snapshot spelled out field by field.
    #[test]
    fn table_expands_to_the_hand_written_counters() {
        let m = Metrics::new();
        m.record_invocation(7);
        m.record_remote_invocation();
        m.record_reply(5);
        m.record_deferred_reply();
        m.record_internal_message();
        m.record_eject_created();
        m.record_activation();
        m.record_deactivation();
        m.record_checkpoint(40, true);
        m.record_crash();
        m.record_route_cache_hit();
        m.record_route_cache_miss();
        m.record_retry();
        m.record_fault_injected();
        m.record_reactivation();
        m.record_recovered_stream();
        m.record_success();
        m.record_fatal_failure();
        m.record_shed_newest();
        m.record_shed_oldest();
        m.record_shed_expired();
        m.record_shed_park_timeout();
        let s = m.snapshot();
        let by_hand = MetricsSnapshot {
            invocations: 1,
            remote_invocations: 1,
            replies: 1,
            deferred_replies: 1,
            internal_messages: 1,
            bytes_invoked: 7,
            bytes_replied: 5,
            ejects_created: 1,
            activations: 1,
            deactivations: 1,
            checkpoints: 1,
            checkpoint_bytes: 40,
            journal_entries: 1,
            crashes: 1,
            route_cache_hits: 1,
            route_cache_misses: 1,
            retries: 1,
            faults_injected: 1,
            reactivations: 1,
            recovered_streams: 1,
            successes: 1,
            fatal_failures: 1,
            sheds_newest: 1,
            sheds_oldest: 1,
            sheds_expired: 1,
            sheds_park_timeout: 1,
        };
        assert_eq!(s, by_hand);
        assert_eq!(s.since(&s), MetricsSnapshot::default());

        let rows: Vec<_> = s.rows().collect();
        let names: std::collections::BTreeSet<&str> = rows.iter().map(|r| r.0).collect();
        assert_eq!((rows.len(), names.len()), (22, 22), "22 distinct exported names");
        assert!(names.iter().all(|n| n.starts_with("eden_") && n.ends_with("_total")));
        assert!(rows.iter().all(|r| !r.1.is_empty()), "every exported counter has help");
        let value_of = |name: &str| rows.iter().find(|r| r.0 == name).map(|r| r.2);
        assert_eq!(value_of("eden_bytes_invoked_total"), Some(7));
        assert_eq!(value_of("eden_checkpoint_bytes_total"), Some(40));
        assert_eq!(rows.iter().map(|r| r.2).sum::<u64>(), 19 + 7 + 5 + 40);
    }

    #[test]
    fn recording_from_many_threads_folds_to_the_exact_total() {
        const THREADS: u64 = 32;
        const EACH: u64 = 50;
        let m = Metrics::new();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..EACH {
                        m.record_invocation(3);
                        m.record_retry();
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.invocations, THREADS * EACH);
        assert_eq!(s.bytes_invoked, 3 * THREADS * EACH);
        assert_eq!(s.retries, THREADS * EACH);
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
