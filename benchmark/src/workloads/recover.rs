//! `recover-durable`: writes beside reads on the `stable` layer. The
//! recoverable pipeline (`double`, `inc`; batch 8) runs once per recovery
//! discipline on a kernel whose checkpoints go to a log-structured durable
//! store on the real filing system, fsynced every 64 batches, while a
//! seeded fault plan crashes targets and drops invocations of the stream
//! operations. A restart phase then populates one durable log with stream
//! checkpoints, drops every handle, and reopens it cold several times.
//!
//! The only workload where `wire`, group commit, fsync, fault handling and
//! `recovery.rs` do the work.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use eden_core::{wire, Uid, Value};
use eden_kernel::{
    FaultKind, FaultPlan, FaultRule, FsyncPolicy, Kernel, KernelSnapshot, ObsConfig, StableStore,
};
use eden_transput::transform::{map_fn, Transform};
use eden_transput::{
    install_recovery, run_recoverable_pipeline, RecoveryDiscipline, TransformRegistry,
};

use super::{
    best, build_kernel, cheapest, put_discipline_rates, put_on_time_without_deadline,
    put_process_metrics, put_rep_metrics, repeat_for, sample_peaks, scratch_dir, traced_obs, Rep,
    RunConfig, Timed, TracedRep, DEADLINE,
};
use crate::decl::Better;
use crate::host::process_cpu_seconds;
use crate::inputs;
use crate::probes;
use crate::report::Ledger;
use crate::stats;
use crate::trace::Tracer;

const ARMS: [(&str, RecoveryDiscipline); 3] = [
    ("read_only", RecoveryDiscipline::ReadOnly),
    ("write_only", RecoveryDiscipline::WriteOnly),
    ("conventional", RecoveryDiscipline::Conventional),
];
const TRANSFORMS: [&str; 2] = ["double", "inc"];
const BATCH: usize = 8;
const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(64);
/// Probability of each of the four fault rules per stream invocation.
const FAULT_RATE: f64 = 0.005;

fn double() -> Box<dyn Transform> {
    Box::new(map_fn("double", |v| {
        Value::Int(v.as_int().unwrap_or(0) * 2)
    }))
}

fn inc() -> Box<dyn Transform> {
    Box::new(map_fn("inc", |v| Value::Int(v.as_int().unwrap_or(0) + 1)))
}

fn registry() -> TransformRegistry {
    TransformRegistry::new(&[("double", double), ("inc", inc)])
}

/// Crash and drop faults on both stream operations, drawn from `seed`.
fn fault_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for kind in [FaultKind::CrashTarget, FaultKind::Drop] {
        for op in ["Transfer", "Write"] {
            plan = plan.rule(
                FaultRule::new(kind.clone())
                    .on_op(op)
                    .with_probability(FAULT_RATE),
            );
        }
    }
    plan
}

/// How many of `want` never arrived, and how many arrivals were surplus.
fn lost_and_duplicated(want: &[i64], got: &[Value]) -> (u64, u64) {
    let mut counts: HashMap<i64, i64> = HashMap::new();
    for w in want {
        *counts.entry(*w).or_default() += 1;
    }
    let mut duplicated = 0;
    for g in got {
        match g.as_int().ok().and_then(|i| counts.get_mut(&i)) {
            Some(c) if *c > 0 => *c -= 1,
            _ => duplicated += 1,
        }
    }
    (counts.values().sum::<i64>() as u64, duplicated)
}

struct Sizes {
    records: usize,
    traced_records: usize,
    min_reps: usize,
    /// Stream checkpoints in the restart phase's log.
    streams: usize,
    reopens: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct ArmRun {
    timed: Timed,
    trace: u64,
}

struct RepRun {
    rep: Rep,
    arms: [ArmRun; 3],
    kernel: Kernel,
    kernel_epoch: Instant,
    dir: std::path::PathBuf,
    run_spans: [u64; 3],
    /// Sampled beside the repetition when asked for (empty otherwise).
    peaks: super::Peaks,
    /// Crash-to-reactivation latencies sampled likewise, milliseconds.
    recovery_ms: Vec<f64>,
}

impl RepRun {
    /// Stop the kernel and remove its log.
    fn finish(self) {
        self.kernel.shutdown();
        drop(self.kernel);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One repetition: a kernel on a fresh durable log with the fault plan
/// installed, then the three disciplines back to back, each output checked
/// against `2i + 1` exactly once. With `sample`, helper threads watch the
/// kernel meanwhile for its peaks and its crash-to-reactivation latency.
fn repetition(
    cfg: &RunConfig,
    records: usize,
    obs: ObsConfig,
    sample: bool,
    rep_index: usize,
    out: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<RepRun, String> {
    let setup_from = Instant::now();
    let dir = scratch_dir("recover");
    let (built, _) = tracer.span("eden-kernel:build on a durable store", |_| {
        Kernel::builder()
            .observability(obs)
            .durable_store(&dir, FSYNC)
            .map(build_kernel)
            .map_err(|e| format!("durable store does not open in {}: {e}", dir.display()))
    });
    let (kernel, kernel_epoch) = built?;
    let registry = registry();
    install_recovery(&kernel, &registry);
    kernel.install_faults(fault_plan(inputs::derive(cfg.seed, 500 + rep_index as u64)));
    let (input, _) = tracer.span("harness:generate inputs", |_| {
        inputs::distinct_ints(records, inputs::derive(cfg.seed, rep_index as u64))
    });
    let setup_s = setup_from.elapsed().as_secs_f64();
    let samplers = sample.then(|| {
        (
            sample_peaks(&kernel, Duration::from_millis(1)),
            probes::sample_recovery_ms(&kernel),
        )
    });

    let mut want: Vec<i64> = input.iter().map(|i| 2 * i + 1).collect();
    if cfg.corrupt_reference {
        want[0] -= 1;
    }
    let mut arms = [ArmRun::default(); 3];
    let mut run_spans = [0u64; 3];
    for (arm, (key, discipline)) in ARMS.iter().enumerate() {
        let items: Vec<Value> = input.iter().copied().map(Value::Int).collect();
        let cpu_from = process_cpu_seconds();
        let from = Instant::now();
        let (run, span) = tracer.span(&format!("eden-transput:recoverable run {key}"), |_| {
            run_recoverable_pipeline(
                &kernel,
                *discipline,
                items,
                &TRANSFORMS,
                &registry,
                BATCH,
                DEADLINE,
            )
        });
        let wall_s = from.elapsed().as_secs_f64();
        let cpu_s = process_cpu_seconds() - cpu_from;
        let run = run.map_err(|e| format!("recoverable {key} pipeline failed: {e}"))?;
        let (lost, duplicated) = lost_and_duplicated(&want, &run.output);
        out.check(&format!("{key}: no record lost"), records as u64, lost);
        out.check(
            &format!("{key}: no record duplicated"),
            records as u64,
            duplicated,
        );
        arms[arm] = ArmRun {
            timed: Timed {
                records: run.output.len() as u64,
                wall_s,
                cpu_s,
            },
            trace: run.trace,
        };
        run_spans[arm] = span;
    }
    let (peaks, recovery_ms) = samplers
        .map(|(peaks, recovery)| (peaks.finish(), recovery.finish()))
        .unwrap_or_default();
    let rep = Rep {
        setup_s,
        arms: arms.map(|a| a.timed),
    };
    Ok(RepRun {
        rep,
        arms,
        kernel,
        kernel_epoch,
        dir,
        run_spans,
        peaks,
        recovery_ms,
    })
}

/// One stream's checkpoint, as a real stage's position-plus-tag state.
fn stream_state(i: usize) -> Value {
    Value::record([
        ("seq", Value::Int(i as i64)),
        ("pos", Value::Int((i * 7) as i64)),
        ("tag", Value::str(format!("stream-{i}"))),
    ])
}

fn open_log(dir: &Path) -> Result<StableStore, String> {
    StableStore::durable(dir, FSYNC)
        .map_err(|e| format!("durable store does not open in {}: {e}", dir.display()))
}

/// Populate one durable log, drop every handle, reopen it cold `reopens`
/// times. Returns the seconds each reopen took until `len()` answered.
fn restart_phase(sizes: &Sizes, out: &mut Ledger, tracer: &mut Tracer) -> Result<Vec<f64>, String> {
    let dir = scratch_dir("restart");
    let (populated, _) = tracer.span("eden-kernel::stable:populate", |_| {
        let store = open_log(&dir)?;
        for i in 0..sizes.streams {
            store
                .store(
                    Uid::fresh(),
                    "BenchStream",
                    wire::encode(&stream_state(i)).into(),
                )
                .map_err(|e| format!("checkpoint store failed: {e}"))?;
        }
        store.flush().map_err(|e| format!("flush failed: {e}"))
    });
    populated?;
    let mut reopen_s = Vec::new();
    for _ in 0..sizes.reopens {
        let (opened, _) = tracer.span("eden-kernel::stable:cold reopen", |_| {
            let from = Instant::now();
            let store = open_log(&dir)?;
            let len = store.len();
            Ok::<_, String>((from.elapsed().as_secs_f64(), len))
        });
        let (seconds, len) = opened?;
        out.check(
            "reopened log holds every checkpoint",
            sizes.streams as u64,
            sizes.streams.abs_diff(len) as u64,
        );
        reopen_s.push(seconds);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(reopen_s)
}

/// `recover-durable`.
pub fn run(cfg: &RunConfig, out: &mut Ledger, tracer: &mut Tracer) -> Result<(), String> {
    let sizes = if cfg.smoke {
        Sizes {
            records: 200,
            traced_records: 200,
            min_reps: 2,
            streams: 2_000,
            reopens: 3,
        }
    } else {
        Sizes {
            records: 4_000,
            traced_records: 2_000,
            min_reps: 4,
            streams: 50_000,
            reopens: 5,
        }
    };
    out.note(format!(
        "sizes records {} batch {BATCH} transforms double,inc disciplines 3 fsync every-64 fault_rate {FAULT_RATE} restart_streams {} reopens {}",
        sizes.records, sizes.streams, sizes.reopens
    ));
    let repeated = repeat_for(cfg.measure_budget(), sizes.min_reps, |i| {
        let run = repetition(
            cfg,
            sizes.records,
            ObsConfig::off(),
            false,
            i,
            out,
            &mut Tracer::off(),
        )?;
        let figures = (run.rep, run.kernel.metrics().snapshot().invocations);
        run.finish();
        Ok(figures)
    })?;
    let reps: Vec<Rep> = repeated.reps.iter().map(|r| r.0).collect();
    put_rep_metrics(out, &reps);
    // Every arm counts here: retries and reactivations are the workload.
    let invocations: u64 = repeated.reps.iter().map(|r| r.1).sum();
    let records: u64 = reps.iter().map(Rep::records).sum();
    out.put(
        "invocations_per_record",
        invocations as f64 / records as f64,
    );

    put_restart_figures(&sizes, out, tracer)?;
    if cfg.traced {
        traced_phase(cfg, &sizes, out, tracer)?;
    }
    put_on_time_without_deadline(out);
    put_process_metrics(out, repeated.first_rep_peak_rss);
    Ok(())
}

/// Run the restart phase and report how long a cold reopen takes.
fn put_restart_figures(sizes: &Sizes, out: &mut Ledger, tracer: &mut Tracer) -> Result<(), String> {
    let reopen_s = restart_phase(sizes, out, tracer)?;
    let replay_s = best(&reopen_s, Better::Lower);
    out.put_probe("restart_replay_s", replay_s);
    out.put_probe(
        "kernel.stable.replay_ns_per_record",
        replay_s * 1e9 / sizes.streams as f64,
    );
    out.note(format!(
        "restart_replay_s over {} cold reopens of {} checkpoints: median {:.4}",
        reopen_s.len(),
        sizes.streams,
        stats::median(&reopen_s)
    ));
    Ok(())
}

/// What the fault and stable layers did over one repetition, and the
/// checkpoints its stages left in the log.
struct LayerEvidence {
    snapshot: KernelSnapshot,
    checkpoints: Vec<eden_kernel::PassiveRecord>,
}

impl LayerEvidence {
    /// Read both off a repetition's kernel before it is stopped.
    fn of(kernel: &Kernel) -> LayerEvidence {
        let store = kernel.stable_store();
        LayerEvidence {
            snapshot: kernel.metrics_snapshot(),
            checkpoints: store
                .uids()
                .into_iter()
                .filter_map(|uid| store.load(uid).ok())
                .collect(),
        }
    }

    /// `eden-kernel::fault` and `stable` counts, and the `wire` and `stable`
    /// probes over the workload's own checkpoint values.
    fn put(&self, recovery_ms: &[f64], out: &mut Ledger) -> Result<(), String> {
        let m = &self.snapshot.metrics;
        out.put_probe("kernel.fault.injected", m.faults_injected as f64);
        out.put_probe("kernel.fault.crashes", m.crashes as f64);
        out.put_probe("kernel.fault.retries", m.retries as f64);
        out.put_probe("kernel.fault.reactivations", m.reactivations as f64);
        out.put_probe("kernel.fault.recovery_p50_ms", stats::median(recovery_ms));
        out.note(format!(
            "kernel.fault.recovery_p50_ms is over {} crash-to-reactivation samples",
            recovery_ms.len()
        ));
        out.put_probe("kernel.stable.fsyncs", self.snapshot.stable.fsyncs as f64);
        out.put_probe(
            "kernel.stable.log_bytes",
            self.snapshot.stable.log_bytes as f64,
        );
        out.put_probe("kernel.stable.checkpoints", m.checkpoints as f64);
        probes::wire(&self.checkpoints, out)?;
        probes::stable(&self.checkpoints, FSYNC, out)
    }
}

/// Stand in for `recover-durable` in another workload's traced run: one
/// small repetition and a small restart phase.
pub fn probe(cfg: &RunConfig, out: &mut Ledger) -> Result<(), String> {
    let sizes = Sizes {
        records: 1_000,
        traced_records: 1_000,
        min_reps: 1,
        streams: 5_000,
        reopens: 3,
    };
    let run = repetition(
        cfg,
        sizes.records,
        ObsConfig::off(),
        true,
        0,
        out,
        &mut Tracer::off(),
    )?;
    LayerEvidence::of(&run.kernel).put(&run.recovery_ms, out)?;
    out.put_probe("transput.recovery.records_per_s", run.rep.rate());
    run.finish();
    put_restart_figures(&sizes, out, &mut Tracer::off())
}

fn traced_phase(
    cfg: &RunConfig,
    sizes: &Sizes,
    out: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<(), String> {
    probes::invocation(cfg.smoke, out)?;
    let records = sizes.traced_records;

    // The same small repetition with the kernel's tracing off and on: the
    // difference is what looking costs. Faults multiply invocations; leave
    // room for several times the fault-free count so that no span is dropped.
    let obs = traced_obs(3 * (records / BATCH + 64) * 64);
    let mut small = |obs: ObsConfig| {
        cheapest(
            || {
                let run = repetition(cfg, records, obs, false, 0, out, &mut Tracer::off())?;
                let figures = (run.rep, run.arms);
                run.finish();
                Ok(figures)
            },
            |(rep, _)| rep.wall_s(),
        )
    };
    let (untraced_rep, untraced_arms) = small(ObsConfig::off())?;
    let traced_wall_s = small(obs)?.0.wall_s();

    let payload_before = eden_core::payload::snapshot();
    let (traced, _) = tracer.span("harness:traced repetition", |t| {
        repetition(cfg, records, obs, true, 0, out, t)
    });
    let traced = traced?;
    let payload = eden_core::payload::snapshot().since(&payload_before);
    let evidence = LayerEvidence::of(&traced.kernel);
    let spans = traced.kernel.spans();
    let hosts: Vec<_> = traced
        .run_spans
        .iter()
        .zip(&traced.arms)
        .map(|(span, arm)| (*span, vec![arm.trace]))
        .collect();
    tracer.add_kernel_spans_by_trace(&hosts, traced.kernel_epoch, &spans);
    TracedRep {
        snapshot: &evidence.snapshot,
        spans: &spans,
        peaks: traced.peaks,
        payload,
        traced_cost: traced_wall_s,
        untraced_cost: untraced_rep.wall_s(),
    }
    .put(out);
    evidence.put(&traced.recovery_ms, out)?;
    traced.finish();

    put_discipline_rates(out, untraced_arms.map(|a| a.timed.rate()));
    out.put("transput.recovery.records_per_s", untraced_rep.rate());
    super::probe_suite(cfg, out)
}
