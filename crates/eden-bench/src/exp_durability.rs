//! Experiments E9 and E10: checkpoint durability and directory service.

use std::time::{Duration, Instant};

use eden_core::op::ops;
use eden_core::Value;
use eden_fs::{add_entry, lookup, register_fs_types, DirConcatenatorEject, DirectoryEject, FileEject};
use eden_kernel::Kernel;
use eden_transput::collector::Collector;
use eden_transput::{Input, Output, Stage, StageConfig};

use crate::runner::fmt_f;
use crate::table::Table;
use crate::workloads;

const WAIT: Duration = Duration::from_secs(60);

/// E9 — checkpoint / crash / reactivate-on-invocation (§1, §2, §7).
pub fn e9() -> Vec<Table> {
    let mut t = Table::new(
        "E9: checkpoint and recovery vs file size",
        &[
            "records",
            "stable bytes",
            "checkpoint ms",
            "crash+reactivate ms",
            "contents intact",
        ],
    );
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    for records in [100usize, 1_000, 10_000] {
        let lines: Vec<String> = workloads::sized_lines(records, 32)
            .into_iter()
            .map(|v| v.as_str().expect("line").to_owned())
            .collect();
        let file = kernel
            .spawn(Box::new(FileEject::from_lines(lines)))
            .expect("spawn file");
        let t0 = Instant::now();
        kernel
            .invoke(file, ops::CHECKPOINT, Value::Unit).wait()
            .expect("checkpoint");
        let checkpoint_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let stable_bytes = kernel
            .stable_store()
            .load(file)
            .expect("stable record")
            .bytes
            .len();
        let t1 = Instant::now();
        kernel.crash(file).expect("crash");
        // First invocation reactivates.
        let len = kernel
            .invoke(file, "Length", Value::Unit).wait()
            .expect("reactivate");
        let recover_ms = t1.elapsed().as_secs_f64() * 1000.0;
        t.row([
            records.to_string(),
            stable_bytes.to_string(),
            fmt_f(checkpoint_ms),
            fmt_f(recover_ms),
            (len == Value::Int(records as i64)).to_string(),
        ]);
    }
    kernel.shutdown();
    t.note("post-checkpoint mutations roll back on crash (see kernel tests); checkpoint cost scales with state size.");
    vec![t]
}

/// E10 — directories as Ejects: operations, listing-as-stream, and the
/// PATH-style concatenator (§2).
pub fn e10() -> Vec<Table> {
    let kernel = Kernel::new();
    register_fs_types(&kernel);

    let mut t = Table::new(
        "E10a: directory operations vs size",
        &["entries", "AddEntry total ms", "Lookup avg us", "List stream krec/s"],
    );
    for size in [10usize, 100, 1000] {
        let dir = kernel
            .spawn(Box::new(DirectoryEject::new()))
            .expect("spawn dir");
        let t0 = Instant::now();
        for i in 0..size {
            add_entry(&kernel, dir, &format!("entry-{i:05}"), eden_core::Uid::fresh())
                .expect("add");
        }
        let add_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let probes = 100.min(size);
        let t1 = Instant::now();
        for i in 0..probes {
            lookup(&kernel, dir, &format!("entry-{:05}", i * size / probes.max(1)))
                .expect("lookup");
        }
        let lookup_us = t1.elapsed().as_secs_f64() * 1e6 / probes as f64;
        kernel
            .invoke(dir, ops::LIST, Value::Unit).wait()
            .expect("list");
        let c = Collector::new();
        let t2 = Instant::now();
        kernel
            .spawn(Box::new(Stage::new(
                Input::pull(dir),
                Output::Collector(c.clone()),
                StageConfig::batch(64),
            )))
            .expect("sink");
        let listed = c.wait_done(WAIT).expect("listing").len();
        let stream_krate = listed as f64 / t2.elapsed().as_secs_f64() / 1000.0;
        assert_eq!(listed, size);
        t.row([
            size.to_string(),
            fmt_f(add_ms),
            fmt_f(lookup_us),
            fmt_f(stream_krate),
        ]);
    }

    let mut c = Table::new(
        "E10b: PATH-style concatenator — lookup cost vs position of hit",
        &["directories", "hit in dir #", "invocations per lookup"],
    );
    for m in [1usize, 2, 4, 8] {
        let dirs: Vec<eden_core::Uid> = (0..m)
            .map(|_| kernel.spawn(Box::new(DirectoryEject::new())).expect("dir"))
            .collect();
        // The target lives in the last directory: worst case.
        let target = eden_core::Uid::fresh();
        add_entry(&kernel, dirs[m - 1], "needle", target).expect("add");
        let path = kernel
            .spawn(Box::new(DirConcatenatorEject::new(dirs)))
            .expect("concat");
        let before = kernel.metrics().snapshot();
        let found = lookup(&kernel, path, "needle").expect("lookup");
        let delta = kernel.metrics().snapshot().since(&before);
        assert_eq!(found, target);
        c.row([
            m.to_string(),
            m.to_string(),
            // One invocation on the concatenator + one per directory probed.
            delta.invocations.to_string(),
        ]);
    }
    c.note("measured invocations = 1 (concatenator) + m (probes) — the paper's 'multiple lookups' implementation.");
    kernel.shutdown();
    vec![t, c]
}
