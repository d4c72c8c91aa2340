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
//!
//! Counting must cost little beside what it counts: a thread adds, by a
//! plain load and store, to a block of counters it owns until it exits and
//! hands it on, counts and all. The last of 64 blocks is shared, through
//! `fetch_add`, by threads past the 63 owned or whose hold is torn down.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BLOCKS: usize = 64;
const SHARED: usize = BLOCKS - 1;

/// Bit `i` is set while a live thread owns block `i` of every `Metrics`.
static TAKEN: AtomicU64 = AtomicU64::new(0);

/// A thread's hold on its block index, given back when the thread exits.
struct Slot(usize);

impl Slot {
    fn take() -> Slot {
        let owned = (1u64 << SHARED) - 1;
        // Acquire: the last owner's Release hands its stores to this owner.
        // eden-lint: ordering(owner-store)
        let taken = TAKEN.fetch_update(Ordering::Acquire, Ordering::Acquire, |t| {
            let free = !t & owned;
            (free != 0).then(|| t | 1 << free.trailing_zeros())
        });
        let slot = taken.map_or(SHARED, |t| (!t & owned).trailing_zeros() as usize);
        SLOT.set(slot);
        Slot(slot)
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        SLOT.set(SHARED);
        if self.0 != SHARED {
            TAKEN.fetch_and(!(1 << self.0), Ordering::Release);
        }
    }
}

thread_local! {
    /// The index every record reads (one load: no destructor), `MAX` until taken.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static HOLD: Slot = Slot::take();
}

#[cold]
fn take_slot() -> usize {
    HOLD.try_with(|hold| hold.0).unwrap_or(SHARED)
}

/// Add `by` to `counter`: its `owned` block has one writer, so a load and a
/// store add exactly, with no locked read-modify-write.
#[inline]
fn bump(counter: &AtomicU64, by: u64, owned: bool) {
    if owned {
        // eden-lint: ordering(owner-store)
        counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
    } else {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// Shared event counters. Cheap to clone (an `Arc` bump); updated with
/// relaxed atomics — the counts are statistics, not synchronisation — each
/// thread in its own block (module docs), folded by [`Metrics::snapshot`].
#[derive(Clone, Debug)]
pub struct Metrics {
    blocks: Arc<[CounterBlock; BLOCKS]>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            blocks: Arc::new(std::array::from_fn(|_| CounterBlock::default())),
        }
    }
}

/// One block of counters, aligned to 128 bytes (x86 prefetches line pairs).
#[repr(align(128))]
#[derive(Default, Debug)]
struct CounterBlock(Counters);

/// Declare a struct of `u64` figures, each exported (or not) once, beside
/// its field. A row is
///
/// ```text
/// /// doc
/// vis field [=> "exported_name", "help"];
/// ```
///
/// A field with no name is kept but not exported. It expands to the struct
/// and its `rows()`, the (metric name, help, value) rows the text renderers
/// iterate, in declaration order. No kind is declared: a name ending in
/// `_total` is a counter, and any other name a gauge.
#[macro_export]
macro_rules! exported {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {$(
        $(#[$doc:meta])*
        $fvis:vis $field:ident $(=> $export:literal, $help:literal)?;
    )*}) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$doc])* $fvis $field: u64,)*
        }

        impl $name {
            /// The exported fields as (metric name, help, value) rows.
            pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
                [$($crate::exported!(@row self.$field $(, $export, $help)?),)*]
                    .into_iter()
                    .flatten()
            }
        }
    };
    (@row $value:expr) => {
        None
    };
    (@row $value:expr, $name:literal, $help:literal) => {
        Some(($name, $help, $value))
    };
}

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
/// none), and the name and help it is exported under (the rows the parked
/// gauge is derived from have none). It expands to `Counters`, the
/// one-counter recorders, [`Metrics::snapshot`], and [`MetricsSnapshot`]
/// (an [`exported!`] struct) with [`since`](MetricsSnapshot::since) — so a
/// new counter is one row, and it reaches the snapshot and every exporter
/// by construction.
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

            /// Capture the current counter values, folded across every block.
            pub fn snapshot(&self) -> MetricsSnapshot {
                let mut s = MetricsSnapshot::default();
                for block in self.blocks.iter() {
                    $(s.$field += block.0.$field.load(Ordering::Relaxed);)*
                }
                s
            }
        }

        exported! {
            /// A point-in-time copy of the counters. Subtract two snapshots to
            /// meter a region of execution.
            #[allow(missing_docs)] // Field names are self-describing counter names.
            pub struct MetricsSnapshot {
                $(pub $field $(=> $name, $help)?;)*
            }
        }

        impl MetricsSnapshot {
            /// Events that occurred between `earlier` and `self`.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: self.$field - earlier.$field,)*
                }
            }
        }
    };
    (@record $(#[$doc:meta])* $field:ident) => {};
    (@record $(#[$doc:meta])* $field:ident $record:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $record(&self) {
            let (block, owned) = self.block();
            bump(&block.$field, 1, owned);
        }
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
    /// Record an arriving invocation turned away at a full bounded mailbox.
    sheds_newest / record_shed_newest
        => "eden_mailbox_sheds_total", "Invocations shed by mailbox admission control";
    /// Record a call whose callee ran on its caller's stack — a pool
    /// worker's or any other thread's — instead of being queued for another
    /// thread (see `Kernel::call`).
    inline_handoffs / record_inline_handoff
        => "eden_sched_inline_handoffs_total", "Callees resumed on their waiting caller's stack";
    /// Record a stall the scheduler's monitor broke (runnable work, no pickup
    /// for two ticks): a wake owed and not sent, or a worker stuck where the
    /// kernel cannot see.
    monitor_rescues / record_monitor_rescue => "eden_sched_monitor_rescues_total",
        "Stalls broken by the stall monitor (runnable work, no pickup for two ticks)";
    /// Record an idle-wait (10 ms) expiry that found runnable work — the
    /// other backstop; also a sleeper surfacing while the active workers are
    /// busy.
    idle_timeouts_with_work / record_idle_timeout_with_work
        => "eden_sched_idle_timeouts_with_work_total",
            "Idle-wait expiries that found runnable work";
    /// Record a spare worker spawned, by blocking compensation or the monitor.
    spares_spawned / record_spare_spawned => "eden_sched_spares_spawned_total",
        "Slotless workers spawned by blocking compensation or the monitor";
    /// Record a scheduler task parking on its mailbox. Parks less wakes is
    /// the parked gauge, exact at rest.
    parks / record_park;
    /// Record a parked scheduler task woken by a send.
    wakes / record_wake;
    /// Record a scheduler worker picking a task off the run queue: the
    /// stall monitor's progress signal.
    pickups / record_pickup;
}

impl Metrics {
    /// Create a fresh, zeroed set of counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record an invocation being sent, with its parameter payload size.
    #[inline]
    pub fn record_invocation(&self, payload_bytes: usize) {
        let (block, owned) = self.block();
        bump(&block.invocations, 1, owned);
        bump(&block.bytes_invoked, payload_bytes as u64, owned);
    }

    /// Record a reply being delivered, with its payload size.
    #[inline]
    pub fn record_reply(&self, payload_bytes: usize) {
        let (block, owned) = self.block();
        bump(&block.replies, 1, owned);
        bump(&block.bytes_replied, payload_bytes as u64, owned);
    }

    /// Record a durable write of `bytes` to the stable store: a whole
    /// checkpoint, or (`entry`) one journal entry beside it.
    pub fn record_checkpoint(&self, bytes: usize, entry: bool) {
        let (block, owned) = self.block();
        bump(&block.checkpoints, 1, owned);
        bump(&block.checkpoint_bytes, bytes as u64, owned);
        bump(&block.journal_entries, entry as u64, owned);
    }

    /// Pickups and inline handoffs, folded in one pass: the stall monitor's
    /// per-tick progress. A worker running a chain of inline calls picks
    /// nothing up, and is making progress all the same.
    pub fn progress(&self) -> u64 {
        let fold = |CounterBlock(c): &CounterBlock| {
            c.pickups.load(Ordering::Relaxed) + c.inline_handoffs.load(Ordering::Relaxed)
        };
        self.blocks.iter().map(fold).sum()
    }

    /// How many handles share these counters: what a hot path that clones
    /// none leaves unchanged.
    #[doc(hidden)]
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.blocks)
    }

    /// The calling thread's counter block, and whether the thread owns it.
    #[inline]
    fn block(&self) -> (&Counters, bool) {
        let slot = SLOT.get();
        let slot = if slot < BLOCKS { slot } else { take_slot() };
        (&self.blocks[slot % BLOCKS].0, slot != SHARED)
    }
}

impl MetricsSnapshot {
    /// Total invocations shed by admission control.
    pub fn sheds_total(&self) -> u64 {
        self.sheds_newest
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
    pub(crate) invocation_ns: f64,
    /// Cost of one intra-Eject, language-level process message.
    pub(crate) internal_msg_ns: f64,
    /// Cost per payload byte moved across an Eject boundary.
    pub(crate) per_byte_ns: f64,
    /// Cost of activating an Eject (process creation, checkpoint read).
    pub(crate) activation_ns: f64,
    /// Additional cost when an invocation crosses simulated machines
    /// (the paper's VAXen on a 10 Mbit Ethernet).
    pub(crate) remote_extra_ns: f64,
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
            (
                delta.checkpoints,
                delta.checkpoint_bytes,
                delta.journal_entries
            ),
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
        m.record_shed_newest();
        let s = m.snapshot();
        assert_eq!(s.sheds_newest, 3);
        assert_eq!(s.sheds_total(), 3);
        let delta = s.since(&before);
        assert_eq!(delta.sheds_newest, 2);
        assert_eq!(delta.sheds_total(), 2);
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
        m.record_inline_handoff();
        m.record_monitor_rescue();
        m.record_idle_timeout_with_work();
        m.record_spare_spawned();
        m.record_park();
        m.record_wake();
        m.record_pickup();
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
            inline_handoffs: 1,
            monitor_rescues: 1,
            idle_timeouts_with_work: 1,
            spares_spawned: 1,
            parks: 1,
            wakes: 1,
            pickups: 1,
        };
        assert_eq!(s, by_hand);
        assert_eq!(s.since(&s), MetricsSnapshot::default());

        let rows: Vec<_> = s.rows().collect();
        let names: std::collections::BTreeSet<&str> = rows.iter().map(|r| r.0).collect();
        // Every row but the three the parked gauge and the stall monitor
        // read (parks, wakes, pickups) is exported, each under its own name.
        assert_eq!(
            (rows.len(), names.len()),
            (27, 27),
            "27 distinct exported names"
        );
        // A counter's name says it is one: the renderers read the kind there.
        assert!(names
            .iter()
            .all(|n| n.starts_with("eden_") && n.ends_with("_total")));
        assert!(
            rows.iter().all(|r| !r.1.is_empty()),
            "every exported counter has help"
        );
        let value_of = |name: &str| rows.iter().find(|r| r.0 == name).map(|r| r.2);
        assert_eq!(value_of("eden_bytes_invoked_total"), Some(7));
        assert_eq!(value_of("eden_checkpoint_bytes_total"), Some(40));
        assert_eq!(value_of("eden_mailbox_sheds_total"), Some(1));
        assert_eq!(rows.iter().map(|r| r.2).sum::<u64>(), 24 + 7 + 5 + 40);
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

    /// More threads alive at once than there are blocks: those past the
    /// owned blocks add to the shared last one, and no add is lost.
    #[test]
    fn more_recording_threads_than_blocks_lose_no_count() {
        const THREADS: usize = BLOCKS + 16;
        const EACH: u64 = 200;
        let m = Metrics::new();
        let all_in = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    m.record_wake();
                    all_in.wait();
                    for _ in 0..EACH {
                        m.record_invocation(2);
                        m.record_park();
                    }
                });
            }
        });
        let s = m.snapshot();
        let n = THREADS as u64;
        assert_eq!((s.wakes, s.invocations, s.parks), (n, n * EACH, n * EACH));
        assert_eq!(s.bytes_invoked, 2 * n * EACH);
        let shared = m.blocks[SHARED].0.wakes.load(Ordering::Relaxed);
        assert!(shared >= n - SHARED as u64, "{shared} threads shared");
        assert_eq!(m.progress(), 0);
    }

    /// Waves of threads, each wave exiting before the next starts: a new
    /// thread takes over an exited one's block and adds to what it holds.
    #[test]
    fn threads_that_take_over_a_block_keep_its_counts() {
        const WAVES: u64 = 6;
        const WIDTH: u64 = 8;
        const EACH: u64 = 300;
        let m = Metrics::new();
        for _ in 0..WAVES {
            std::thread::scope(|scope| {
                for _ in 0..WIDTH {
                    scope.spawn(|| {
                        for _ in 0..EACH {
                            m.record_pickup();
                            m.record_reply(1);
                        }
                    });
                }
            });
        }
        let total = WAVES * WIDTH * EACH;
        let s = m.snapshot();
        assert_eq!(
            (s.pickups, s.replies, s.bytes_replied),
            (total, total, total)
        );
        assert_eq!(m.progress(), total);
    }

    /// A snapshot taken while threads record reads each count no lower
    /// than the one before it, and at rest the fold is the exact sum.
    #[test]
    fn snapshots_taken_while_threads_record_only_rise() {
        const THREADS: u64 = 4;
        const EACH: u64 = 20_000;
        let m = Metrics::new();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..EACH {
                        m.record_checkpoint(3, true);
                    }
                });
            }
            scope.spawn(|| {
                let mut last = MetricsSnapshot::default();
                for _ in 0..2_000 {
                    let now = m.snapshot();
                    assert!(now.checkpoints >= last.checkpoints);
                    assert!(now.checkpoint_bytes >= last.checkpoint_bytes);
                    assert!(now.checkpoints <= THREADS * EACH);
                    last = now;
                }
            });
        });
        let s = m.snapshot();
        let total = THREADS * EACH;
        assert_eq!(
            (s.checkpoints, s.checkpoint_bytes, s.journal_entries),
            (total, 3 * total, total)
        );
    }

    #[test]
    fn cost_model_weighs_invocations() {
        let snap = MetricsSnapshot {
            invocations: 10,
            internal_messages: 100,
            ..Default::default()
        };
        let eden = CostModel::eden_1983();
        let uniform = CostModel::with_ratio(1.0);
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
