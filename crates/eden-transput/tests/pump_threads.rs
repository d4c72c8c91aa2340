//! A running pipeline costs no threads.
//!
//! A stage's process — the sink that pumps a read-only pipeline, the source
//! that pumps a write-only one, every pump of a conventional one, a
//! read-ahead filter — is steps on its own coordinator, and a reply it waits
//! for is posted to its mailbox. So eight depth-4 pipelines running at once
//! run on the pool the kernel was built with: this binary builds them on one
//! kernel, runs them together, one waiter thread each, and samples the
//! `Threads:` line of `/proc/self/status` while they run. What the peak
//! holds beyond the threads there were before, the waiters and the sampler
//! is what the pipelines cost, and it is a small constant (a spare the pool
//! may lend for a moment), not a thread per pump. One test, so nothing else
//! in this binary starts threads beside it. Linux only.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use eden_core::Value;
use eden_kernel::Kernel;
use eden_transput::transform::Identity;
use eden_transput::{ChannelPolicy, Discipline, PipelineSpec};

const PIPELINES: usize = 8;
const DEPTH: usize = 4;
const RECORDS: i64 = 1_000;
/// Threads the pipelines may add to the pool, in any arm.
const EXTRA: usize = 4;

/// The process's thread count.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"));
    line.expect("a Threads: line")
        .trim()
        .parse()
        .expect("a count")
}

/// Run `PIPELINES` pipelines of `discipline` at once on `kernel`, and return
/// the most threads beyond `baseline` the process held meanwhile, not
/// counting the waiters and the sampler.
fn extra_threads(kernel: &Kernel, discipline: Discipline) -> usize {
    let expected: Vec<Value> = (0..RECORDS).map(Value::Int).collect();
    let pipelines: Vec<_> = (0..PIPELINES)
        .map(|_| {
            let mut spec = PipelineSpec::new(discipline)
                .source_vec(expected.clone())
                .batch(1)
                .policy(ChannelPolicy::Integer);
            for _ in 0..DEPTH {
                spec = spec.stage(Box::new(Identity));
            }
            spec.build(kernel).expect("the pipeline builds")
        })
        .collect();
    let baseline = threads();
    let (peak, running) = (
        Arc::new(AtomicUsize::new(0)),
        Arc::new(AtomicBool::new(true)),
    );
    let sampler = {
        let (peak, running) = (Arc::clone(&peak), Arc::clone(&running));
        std::thread::spawn(move || {
            while running.load(Ordering::Acquire) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    // Every waiter is alive from before the first pipeline runs until after
    // the last one has been torn down, so all of them are in every sample.
    let (started, finished) = (
        Arc::new(Barrier::new(PIPELINES)),
        Arc::new(Barrier::new(PIPELINES)),
    );
    let waiters: Vec<_> = pipelines
        .into_iter()
        .map(|pipeline| {
            let (started, finished) = (Arc::clone(&started), Arc::clone(&finished));
            std::thread::spawn(move || {
                started.wait();
                let run = pipeline.run(Duration::from_secs(120));
                finished.wait();
                run
            })
        })
        .collect();
    for waiter in waiters {
        let run = waiter.join().expect("a waiter").expect("the pipeline runs");
        assert_eq!(run.output, expected, "{}: the output", discipline.label());
    }
    running.store(false, Ordering::Release);
    sampler.join().expect("the sampler");
    let peak = peak.load(Ordering::Relaxed);
    peak.saturating_sub(baseline + PIPELINES + 1)
}

#[test]
fn eight_running_pipelines_run_on_the_pool() {
    let kernel = Kernel::new();
    for discipline in [
        Discipline::ReadOnly { read_ahead: 0 },
        Discipline::WriteOnly { push_ahead: 0 },
        Discipline::Conventional {
            buffer_capacity: 64,
        },
        Discipline::ReadOnly { read_ahead: 4 },
    ] {
        let extra = extra_threads(&kernel, discipline);
        println!("{}: {extra} threads beyond the pool", discipline.label());
        assert!(
            extra <= EXTRA,
            "{}: {extra} threads beyond the pool, at most {EXTRA}",
            discipline.label()
        );
    }
    kernel.shutdown();
}
