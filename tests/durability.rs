//! Durable pipelines: §1's checkpoint contract applied to an entire
//! in-flight stream — recoverable read cursor → recoverable filter —
//! surviving Eject crashes, between operations and inside them, and
//! whole-kernel restart, including over an on-disk stable store.

use std::time::Duration;

use eden::core::op::ops;
use eden::core::{Uid, Value};
use eden::filters::LineNumber;
use eden::fs::{register_fs_types, FileEject};
use eden::kernel::{
    DurableConfig, FaultKind, FaultPlan, FaultRule, FsyncPolicy, InvokeOptions, Kernel,
    KernelConfig, RetryPolicy, StableStore,
};
use eden::transput::protocol::{Batch, TransferRequest};
use eden::transput::recovery::{
    install_recovery, recoverable_filter, run_recoverable_pipeline, RecoveryDiscipline,
    TransformRegistry,
};

fn registry() -> TransformRegistry {
    TransformRegistry::new(&[("line-number", || Box::new(LineNumber::new()))])
}

fn register_all(kernel: &Kernel) {
    register_fs_types(kernel);
    install_recovery(kernel, &registry());
}

/// Read up to `max` records at stream position `pos`: the position is what
/// makes a read repeatable, so it may be retried through a fault.
fn transfer(kernel: &Kernel, target: Uid, max: usize, pos: usize) -> Batch {
    let req = TransferRequest::primary(max).at(pos as u64);
    let retry = RetryPolicy::retries(8).base_delay(Duration::from_millis(1));
    Batch::from_value(
        kernel
            .invoke_with(
                target,
                ops::TRANSFER,
                req.to_value(),
                InvokeOptions::new().retry(retry),
            )
            .wait()
            .expect("transfer"),
    )
    .expect("batch")
}

fn durable_chain(kernel: &Kernel, lines: i64) -> (Uid, Uid) {
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(
            (0..lines).map(|i| format!("record {i}")),
        )))
        .expect("file");
    let cursor = kernel
        .invoke(file, "OpenDurable", Value::Unit)
        .wait()
        .expect("open durable")
        .as_uid()
        .expect("cursor uid");
    let filter = kernel
        .spawn(recoverable_filter("line-number", &registry(), cursor, 2).expect("filter"))
        .expect("spawn filter");
    (cursor, filter)
}

#[test]
fn durable_cursor_survives_crash() {
    let kernel = Kernel::new();
    register_all(&kernel);
    let (cursor, _filter) = durable_chain(&kernel, 6);
    let first = transfer(&kernel, cursor, 2, 0);
    assert_eq!(first.items.len(), 2);
    kernel.crash(cursor).expect("crash cursor");
    // Reactivates with its stream intact: record 2 comes next.
    let next = transfer(&kernel, cursor, 1, 2);
    assert_eq!(next.items[0].as_str().unwrap(), "record 2");
    kernel.shutdown();
}

#[test]
fn crashing_every_eject_between_every_operation_loses_nothing() {
    // The harshest schedule checkpoint-before-acknowledge promises to
    // survive: fail-stop both stages after every single Transfer, and —
    // every third Transfer, the reader's or the filter's own pull — crash
    // its target as it is sent, so the cursor also dies inside the filter's
    // operation.
    let kernel = Kernel::new();
    register_all(&kernel);
    let (cursor, filter) = durable_chain(&kernel, 9);
    kernel.install_faults(
        FaultPlan::new(0xd07a).rule(
            FaultRule::new(FaultKind::CrashTarget)
                .on_op("Transfer")
                .every(3),
        ),
    );
    let mut out = Vec::new();
    loop {
        let batch = transfer(&kernel, filter, 2, out.len());
        out.extend(batch.items);
        if batch.end {
            break;
        }
        kernel.crash(filter).expect("crash filter");
        kernel.crash(cursor).expect("crash cursor");
    }
    assert_eq!(out.len(), 9, "no records lost: {out:?}");
    for (i, line) in out.iter().enumerate() {
        let text = line.as_str().unwrap();
        assert!(
            text.trim_start()
                .starts_with(&format!("{}  record {}", i + 1, i)),
            "row {i} corrupted: {text}"
        );
    }
    let injected = kernel.metrics().snapshot().faults_injected;
    assert!(injected >= 3, "the plan crashed only {injected} Transfers");
    kernel.shutdown();
}

#[test]
fn mid_stream_pipeline_survives_whole_system_restart() {
    let store = StableStore::new();
    let filter;
    {
        let kernel = Kernel::with_stable_store(KernelConfig::default(), store.clone());
        register_all(&kernel);
        let (_cursor, f) = durable_chain(&kernel, 6);
        filter = f;
        let first = transfer(&kernel, filter, 3, 0);
        assert_eq!(first.items.len(), 3);
        kernel.shutdown();
    }
    // "Reboot": fresh kernel over the same stable store.
    let kernel = Kernel::with_stable_store(KernelConfig::default(), store);
    register_all(&kernel);
    let mut rest = Vec::new();
    loop {
        let batch = transfer(&kernel, filter, 2, 3 + rest.len());
        rest.extend(batch.items);
        if batch.end {
            break;
        }
    }
    assert_eq!(rest.len(), 3, "stream resumes mid-flight after reboot");
    assert!(rest[0].as_str().unwrap().contains("record 3"));
    kernel.shutdown();
}

#[test]
fn durable_pipeline_over_disk_backed_store() {
    // Full-stack durability: the stable store itself lives on disk (the
    // durable log, fsynced before every acknowledgement), so even the
    // *process* could die between the two kernels.
    let dir = std::env::temp_dir().join(format!(
        "eden-durability-{}-{}",
        std::process::id(),
        Uid::fresh().seq()
    ));
    let filter;
    {
        let store = StableStore::durable(&dir, FsyncPolicy::Always).expect("open store");
        let kernel = Kernel::with_stable_store(KernelConfig::default(), store);
        register_all(&kernel);
        let (_cursor, f) = durable_chain(&kernel, 4);
        filter = f;
        let first = transfer(&kernel, filter, 2, 0);
        assert_eq!(first.items.len(), 2);
        kernel.shutdown();
    }
    {
        // Re-open the store from disk — nothing shared in memory.
        let store = StableStore::durable(&dir, FsyncPolicy::Always).expect("reopen store");
        let kernel = Kernel::with_stable_store(KernelConfig::default(), store);
        register_all(&kernel);
        let batch = transfer(&kernel, filter, 10, 2);
        assert_eq!(batch.items.len(), 2);
        assert!(batch.end);
        assert!(batch.items[0].as_str().unwrap().contains("record 2"));
        kernel.shutdown();
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The bytes a recoverable run of `records` integers leaves in a durable
/// log that is never compacted: everything it ever wrote.
fn log_bytes_written(discipline: RecoveryDiscipline, records: i64) -> u64 {
    let config = DurableConfig {
        fsync: FsyncPolicy::EveryN(64),
        auto_compact: false,
        ..DurableConfig::default()
    };
    let store = StableStore::durable_on(eden::core::MemFs::new(), config).expect("open log");
    let kernel = Kernel::with_stable_store(KernelConfig::default(), store.clone());
    let registry = TransformRegistry::default();
    install_recovery(&kernel, &registry);
    let items: Vec<Value> = (0..records).map(Value::Int).collect();
    let timeout = Duration::from_secs(120);
    let run = run_recoverable_pipeline(
        &kernel,
        discipline,
        items.clone(),
        &[],
        &registry,
        8,
        timeout,
    );
    assert_eq!(run.expect("run").output, items, "{discipline:?}");
    kernel.shutdown();
    store.stats().log_bytes
}

#[test]
fn what_a_run_writes_to_the_log_grows_with_the_stream_not_its_square() {
    // A stage that holds the stream — the pushing source its supply, the
    // acceptor everything, a pipe its backlog — writes what changed before
    // each acknowledgement, not all it holds: twice the records, about
    // twice the bytes (four times, when every write carried the stream).
    for discipline in [
        RecoveryDiscipline::WriteOnly,
        RecoveryDiscipline::Conventional,
    ] {
        let (short, long) = (
            log_bytes_written(discipline, 2_000),
            log_bytes_written(discipline, 4_000),
        );
        assert!(
            (long as f64) < 2.5 * short as f64,
            "{discipline:?}: {short} bytes for 2,000 records, {long} for 4,000"
        );
    }
}

mod crash_schedules {
    use super::*;
    use proptest::prelude::*;

    /// After which transfers to crash which stage.
    #[derive(Debug, Clone)]
    struct Schedule {
        crash_filter: Vec<bool>,
        crash_cursor: Vec<bool>,
    }

    fn schedule(len: usize) -> impl Strategy<Value = Schedule> {
        (
            proptest::collection::vec(any::<bool>(), len),
            proptest::collection::vec(any::<bool>(), len),
        )
            .prop_map(|(crash_filter, crash_cursor)| Schedule {
                crash_filter,
                crash_cursor,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn any_between_operation_crash_schedule_is_lossless(
            sched in schedule(12),
            batch in 1usize..4,
        ) {
            let kernel = Kernel::new();
            register_all(&kernel);
            let (cursor, filter) = durable_chain(&kernel, 10);
            let mut out = Vec::new();
            let mut step = 0;
            loop {
                let b = transfer(&kernel, filter, batch, out.len());
                out.extend(b.items);
                if b.end {
                    break;
                }
                if sched.crash_filter.get(step).copied().unwrap_or(false) {
                    kernel.crash(filter).expect("crash filter");
                }
                if sched.crash_cursor.get(step).copied().unwrap_or(false) {
                    kernel.crash(cursor).expect("crash cursor");
                }
                step += 1;
            }
            prop_assert_eq!(out.len(), 10, "schedule {:?} lost records", sched);
            for (i, line) in out.iter().enumerate() {
                let text = line.as_str().expect("line");
                prop_assert!(
                    text.contains(&format!("record {i}")),
                    "row {i} out of order under {:?}: {text}",
                    sched
                );
            }
            kernel.shutdown();
        }
    }
}

#[test]
fn plain_reader_dies_where_durable_survives() {
    // The §7 contrast, side by side: the plain reader never checkpointed
    // and disappears; the durable one recovers.
    let kernel = Kernel::new();
    register_all(&kernel);
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(["a", "b", "c"])))
        .expect("file");
    let plain = kernel
        .invoke(file, ops::OPEN, Value::Unit)
        .wait()
        .expect("open")
        .as_uid()
        .expect("uid");
    let durable = kernel
        .invoke(file, "OpenDurable", Value::Unit)
        .wait()
        .expect("open durable")
        .as_uid()
        .expect("uid");
    transfer(&kernel, plain, 1, 0);
    transfer(&kernel, durable, 1, 0);
    kernel.crash(plain).expect("crash plain");
    kernel.crash(durable).expect("crash durable");
    assert!(
        kernel
            .invoke(plain, ops::TRANSFER, TransferRequest::primary(1).to_value())
            .wait()
            .is_err(),
        "the plain reader disappears"
    );
    let recovered = transfer(&kernel, durable, 1, 1);
    assert_eq!(recovered.items[0].as_str().unwrap(), "b");
    kernel.shutdown();
}
