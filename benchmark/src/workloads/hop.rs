//! `pipe-hop` and `pipe-fleet`: depth-4 `Identity` pipelines over integer
//! records at batch 1, in the three disciplines back to back.
//!
//! `pipe-hop` runs one pipeline at a time on one CPU, driven from the main
//! thread: the invocation path is all of the work and nothing runs in
//! parallel, so the layer probes have to add up to the wall time.
//! `pipe-fleet` runs eight of the same pipelines at once on the inherited
//! CPU mask, one waiter thread per pipeline that only sleeps in
//! `Pipeline::run`; the pumps inside the kernel generate the load.

use std::time::Instant;

use eden_core::Value;
use eden_kernel::{Kernel, ObsConfig};
use eden_transput::transform::{Emitter, Identity, Transform};
use eden_transput::{ChannelPolicy, Discipline, Pipeline, PipelineRun, PipelineSpec};

use super::{
    cheapest, fresh_kernel, put_discipline_rates, put_on_time_without_deadline,
    put_process_metrics, put_rep_metrics, repeat_for, sample_peaks, traced_obs, Rep, RunConfig,
    Sampler, Timed, TracedRep, DEADLINE,
};
use crate::host::process_cpu_seconds;
use crate::inputs;
use crate::probes;
use crate::report::Ledger;
use crate::stats;
use crate::trace::Tracer;

/// Filters per pipeline (the paper's n).
pub const DEPTH: usize = 4;

/// The three disciplines with the knobs this benchmark fixes, and the key
/// each goes by in metric names.
pub const ARMS: [(&str, Discipline); 3] = [
    ("read_only", Discipline::ReadOnly { read_ahead: 0 }),
    ("write_only", Discipline::WriteOnly { push_ahead: 0 }),
    (
        "conventional",
        Discipline::Conventional {
            buffer_capacity: 64,
        },
    ),
];

/// Ejects a depth-`DEPTH` pipeline comprises, per arm: n+2, n+2, 2n+3.
const ENTITIES: [usize; 3] = [DEPTH + 2, DEPTH + 2, 2 * DEPTH + 3];

/// Invocations per record a conventional pipeline needs at batch 1 (2n+2);
/// sizes the span store of the traced repetition.
const MAX_INVOCATIONS_PER_RECORD: usize = 2 * DEPTH + 2;

struct Sizes {
    /// Records per pipeline.
    records: usize,
    /// Records per pipeline in the traced repetition.
    traced_records: usize,
    /// Pipelines at once (`pipe-fleet`).
    fleet: usize,
    /// Fewest repetitions.
    min_reps: usize,
}

fn hop_sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            records: 300,
            traced_records: 200,
            fleet: 1,
            min_reps: 2,
        }
    } else {
        Sizes {
            records: 2_000,
            traced_records: 2_000,
            fleet: 1,
            min_reps: 8,
        }
    }
}

fn fleet_sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            records: 100,
            traced_records: 100,
            fleet: 8,
            min_reps: 2,
        }
    } else {
        Sizes {
            records: 1_000,
            traced_records: 1_000,
            fleet: 8,
            min_reps: 5,
        }
    }
}

fn identity_pipeline(
    kernel: &Kernel,
    discipline: Discipline,
    input: Vec<Value>,
) -> Result<Pipeline, String> {
    let mut spec = PipelineSpec::new(discipline)
        .source_vec(input)
        .batch(1)
        .policy(ChannelPolicy::Integer);
    for _ in 0..DEPTH {
        spec = spec.stage(Box::new(Identity));
    }
    spec.build(kernel)
        .map_err(|e| format!("{} pipeline does not build: {e}", discipline.label()))
}

/// Positions at which `got` differs from `want`, plus the length gap.
fn mismatches(want: &[Value], got: &[Value]) -> u64 {
    let differing = want.iter().zip(got).filter(|(w, g)| w != g).count();
    (differing + want.len().abs_diff(got.len())) as u64
}

/// One discipline's share of a repetition.
#[derive(Debug, Clone, Copy, Default)]
struct ArmRun {
    timed: Timed,
    build_s: f64,
    teardown_s: f64,
    /// Data-phase invocations (teardown excluded).
    invocations: u64,
    pipelines: u64,
}

/// One repetition: a fresh kernel, then the three disciplines back to back
/// over the same records, `fleet` pipelines at a time.
struct RepRun {
    rep: Rep,
    arms: [ArmRun; 3],
    kernel: Kernel,
    kernel_epoch: Instant,
    /// Harness span of each arm's data phase, and the trace ids of the
    /// pipelines that ran under it.
    run_spans: Vec<(u64, Vec<u64>)>,
    /// Peaks sampled beside a traced repetition (zeros otherwise).
    peaks: super::Peaks,
}

fn repetition(
    cfg: &RunConfig,
    sizes: &Sizes,
    records: usize,
    obs: ObsConfig,
    rep_index: usize,
    out: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<RepRun, String> {
    let setup_from = Instant::now();
    let ((kernel, kernel_epoch), _) = tracer.span("eden-kernel:build", |_| fresh_kernel(obs));
    let (inputs, _) = tracer.span("harness:generate inputs", |_| {
        (0..sizes.fleet)
            .map(|p| {
                let salt = (rep_index * sizes.fleet + p) as u64;
                inputs::ints(records, inputs::derive(cfg.seed, salt))
            })
            .collect::<Vec<_>>()
    });
    let mut setup_s = setup_from.elapsed().as_secs_f64();
    let sampler = tracer
        .enabled()
        .then(|| sample_peaks(&kernel, std::time::Duration::from_millis(1)));
    let mut arms = [ArmRun::default(); 3];
    let mut run_spans = Vec::new();

    for (arm, (key, discipline)) in ARMS.iter().enumerate() {
        let build_from = Instant::now();
        let (pipelines, _) = tracer.span(&format!("eden-transput:build {key}"), |_| {
            inputs
                .iter()
                .map(|input| identity_pipeline(&kernel, *discipline, input.clone()))
                .collect::<Result<Vec<_>, _>>()
        });
        let pipelines = pipelines?;
        let build_s = build_from.elapsed().as_secs_f64();
        setup_s += build_s;

        let before = kernel.metrics().snapshot();
        let cpu_from = process_cpu_seconds();
        let run_from = Instant::now();
        let (runs, run_span) =
            tracer.span(&format!("eden-transput:run {key}"), |_| run_all(pipelines));
        let called_s = run_from.elapsed().as_secs_f64();
        let cpu_s = process_cpu_seconds() - cpu_from;
        let runs = runs?;
        let after = kernel.metrics().snapshot();

        // Data-phase wall: from the first waiter's start to the last
        // pipeline's end of stream. `Pipeline::run` tears the pipeline down
        // before it returns; that tail is teardown, not data.
        let first_start = runs.iter().map(|r| r.0).min().expect("fleet is not empty");
        let wall_s = runs
            .iter()
            .map(|(start, run)| (*start - first_start + run.wall).as_secs_f64())
            .fold(0.0, f64::max);
        if tracer.enabled() {
            let data_end = first_start + std::time::Duration::from_secs_f64(wall_s);
            tracer.add_child(run_span, "eden-transput:data phase", first_start, data_end);
            tracer.add_child(run_span, "eden-transput:teardown", data_end, Instant::now());
        }

        let mut delivered = 0u64;
        let mut entities = 0u64;
        let mut failed = 0u64;
        for ((_, run), input) in runs.iter().zip(&inputs) {
            let mut want = input.clone();
            if cfg.corrupt_reference {
                want[0] = Value::Int(-1);
            }
            failed += mismatches(&want, &run.output);
            delivered += run.records_out;
            entities += run.entities as u64;
        }
        out.check(
            &format!("{key}: identity output equals input"),
            (records * sizes.fleet) as u64,
            failed,
        );
        out.check(
            &format!("{key}: pipeline comprises {} Ejects", ENTITIES[arm]),
            sizes.fleet as u64,
            runs.iter()
                .filter(|(_, r)| r.entities != ENTITIES[arm])
                .count() as u64,
        );
        arms[arm] = ArmRun {
            timed: Timed {
                records: delivered,
                wall_s,
                cpu_s,
            },
            build_s,
            teardown_s: called_s - wall_s,
            // One `Deactivate` per Eject is teardown's, not the stream's.
            invocations: after.since(&before).invocations - entities,
            pipelines: sizes.fleet as u64,
        };
        run_spans.push((run_span, runs.iter().map(|(_, r)| r.trace).collect()));
    }

    let rep = Rep {
        setup_s,
        arms: arms.map(|a| a.timed),
    };
    let peaks = sampler.map(Sampler::finish).unwrap_or_default();
    Ok(RepRun {
        rep,
        arms,
        kernel,
        kernel_epoch,
        run_spans,
        peaks,
    })
}

/// Run every pipeline to end of stream: on this thread when there is one,
/// else on one waiter thread each. Returns each run with its start instant.
fn run_all(mut pipelines: Vec<Pipeline>) -> Result<Vec<(Instant, PipelineRun)>, String> {
    let run_one = |pipeline: Pipeline| {
        let start = Instant::now();
        pipeline
            .run(DEADLINE)
            .map(|run| (start, run))
            .map_err(|e| format!("pipeline did not complete: {e}"))
    };
    if pipelines.len() == 1 {
        return Ok(vec![run_one(pipelines.remove(0))?]);
    }
    let waiters: Vec<_> = pipelines
        .into_iter()
        .map(|p| std::thread::spawn(move || run_one(p)))
        .collect();
    waiters
        .into_iter()
        .map(|w| w.join().map_err(|_| "waiter thread panicked".to_owned())?)
        .collect()
}

/// Read-only and write-only invocations per record (the paper's n+1, plus
/// the per-stream constants): conventional's count depends on how its pumps
/// interleave, so it is left out of the gated figure.
fn asymmetric_invocations_per_record(reps: &[[ArmRun; 3]]) -> f64 {
    let (inv, rec) = reps
        .iter()
        .flat_map(|arms| &arms[..2])
        .fold((0u64, 0u64), |(i, n), a| {
            (i + a.invocations, n + a.timed.records)
        });
    inv as f64 / rec as f64
}

fn run_pipes(
    cfg: &RunConfig,
    sizes: &Sizes,
    out: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<(), String> {
    out.note(format!(
        "sizes depth {DEPTH} batch 1 records_per_pipeline {} pipelines {} disciplines 3",
        sizes.records, sizes.fleet
    ));
    let mut off = Tracer::off();
    let repeated = repeat_for(cfg.measure_budget(), sizes.min_reps, |i| {
        let run = repetition(
            cfg,
            sizes,
            sizes.records,
            ObsConfig::off(),
            i,
            out,
            &mut off,
        )?;
        run.kernel.shutdown();
        Ok((run.rep, run.arms))
    })?;
    let reps: Vec<Rep> = repeated.reps.iter().map(|r| r.0).collect();
    put_rep_metrics(out, &reps);
    let arms: Vec<[ArmRun; 3]> = repeated.reps.iter().map(|r| r.1).collect();
    out.put(
        "invocations_per_record",
        asymmetric_invocations_per_record(&arms),
    );

    if cfg.traced {
        traced_phase(cfg, sizes, out, tracer)?;
    }
    put_on_time_without_deadline(out);
    put_process_metrics(out, repeated.first_rep_peak_rss);
    Ok(())
}

fn traced_phase(
    cfg: &RunConfig,
    sizes: &Sizes,
    out: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let nested_hop_ns = probes::invocation(cfg.smoke, out)?;
    let identity_push_ns = identity_push_ns(sizes.traced_records)?;
    if cfg.workload == crate::decl::Workload::PipeFleet {
        single_unpinned(cfg, out)?;
    }

    // The same small repetition with the kernel's tracing off and on: the
    // difference is what looking costs.
    let records = sizes.traced_records;
    let obs = traced_obs(3 * sizes.fleet * (records + 8) * MAX_INVOCATIONS_PER_RECORD);
    let mut small = |obs: ObsConfig| {
        cheapest(
            || {
                let rep = repetition(cfg, sizes, records, obs, 0, out, &mut Tracer::off())?;
                rep.kernel.shutdown();
                Ok(rep)
            },
            |r| r.rep.wall_s(),
        )
    };
    let untraced = small(ObsConfig::off())?;
    let traced_wall_s = small(obs)?.rep.wall_s();

    let payload_before = eden_core::payload::snapshot();
    let (traced, _) = tracer.span("harness:traced repetition", |t| {
        repetition(cfg, sizes, records, obs, 0, out, t)
    });
    let traced = traced?;
    let payload = eden_core::payload::snapshot().since(&payload_before);
    let snapshot = traced.kernel.metrics_snapshot();
    let spans = traced.kernel.spans();
    tracer.add_kernel_spans_by_trace(&traced.run_spans, traced.kernel_epoch, &spans);
    traced.kernel.shutdown();

    TracedRep {
        snapshot: &snapshot,
        spans: &spans,
        peaks: traced.peaks,
        payload,
        traced_cost: traced_wall_s,
        untraced_cost: untraced.rep.wall_s(),
    }
    .put(out);

    put_transput_figures(&untraced, out);

    if cfg.workload == crate::decl::Workload::PipeHop {
        // Reconciliation: every invocation of the data phase is one
        // pipeline hop, every record crosses DEPTH identity filters.
        let invocations: u64 = untraced.arms.iter().map(|a| a.invocations).sum();
        let explained_ns = invocations as f64 * nested_hop_ns
            + (untraced.rep.records() as usize * DEPTH) as f64 * identity_push_ns;
        let explained = explained_ns / (untraced.rep.wall_s() * 1e9);
        out.put("stack.explained_share", explained);
        out.put("stack.residual_share", 1.0 - explained);
        out.note(format!(
            "stack: {invocations} invocations x {:.0} ns/hop + {} filter pushes x {identity_push_ns:.1} ns against {:.3} s wall",
            nested_hop_ns,
            untraced.rep.records() as usize * DEPTH,
            untraced.rep.wall_s()
        ));
    }
    super::probe_suite(cfg, out)
}

/// `eden-transput`'s own figures, from one untraced repetition.
fn put_transput_figures(rep: &RepRun, out: &mut Ledger) {
    put_discipline_rates(out, rep.arms.map(|a| a.timed.rate()));
    let pipelines: u64 = rep.arms.iter().map(|a| a.pipelines).sum();
    let build_s: f64 = rep.arms.iter().map(|a| a.build_s).sum();
    let teardown_s: f64 = rep.arms.iter().map(|a| a.teardown_s).sum();
    out.put_probe(
        "transput.build_ms_per_pipeline",
        build_s * 1e3 / pipelines as f64,
    );
    out.put_probe("transput.teardown_ms", teardown_s * 1e3 / 3.0);
    out.put_probe("transput.entities", ENTITIES.iter().sum::<usize>() as f64);
}

/// Stand in for `pipe-hop` in another workload's traced run: one small
/// repetition for `eden-transput`'s figures.
pub fn probe(cfg: &RunConfig, out: &mut Ledger) -> Result<(), String> {
    let sizes = hop_sizes(true);
    let rep = repetition(
        cfg,
        &sizes,
        sizes.records,
        ObsConfig::off(),
        0,
        out,
        &mut Tracer::off(),
    )?;
    rep.kernel.shutdown();
    put_transput_figures(&rep, out);
    Ok(())
}

/// Nanoseconds one `Identity` push costs with no kernel around it.
fn identity_push_ns(records: usize) -> Result<f64, String> {
    let input = inputs::ints(records.max(1_000), 1);
    probes::fastest(|| {
        let mut filter = Identity;
        let mut emitter = Emitter::new();
        let from = Instant::now();
        for item in input.iter().cloned() {
            filter.push(item, &mut emitter);
        }
        let pushed = std::hint::black_box(emitter.take_primary()).len();
        Ok(from.elapsed().as_nanos() as f64 / pushed as f64)
    })
}

/// The honesty figure: one read-only `pipe-hop` pipeline at a time on the
/// inherited CPU mask, eight repetitions. On a two-CPU host this spreads
/// fifty-fold between identical repetitions, which is why `pipe-hop` is
/// pinned and why this is recorded and never gated.
fn single_unpinned(cfg: &RunConfig, out: &mut Ledger) -> Result<(), String> {
    let records = if cfg.smoke { 100 } else { 2_000 };
    let mut rates = Vec::new();
    for rep in 0..8 {
        let (kernel, _) = fresh_kernel(ObsConfig::off());
        let input = inputs::ints(records, inputs::derive(cfg.seed, 2_000 + rep));
        let run = identity_pipeline(&kernel, ARMS[0].1, input.clone())?
            .run(DEADLINE)
            .map_err(|e| format!("single unpinned pipeline did not complete: {e}"))?;
        kernel.shutdown();
        out.check(
            "single unpinned: identity output equals input",
            records as u64,
            mismatches(&input, &run.output),
        );
        rates.push(run.records_out as f64 / run.wall.as_secs_f64());
    }
    stats::sort(&mut rates);
    out.put("sched.single_unpinned.records_per_s_min", rates[0]);
    out.put(
        "sched.single_unpinned.records_per_s_p50",
        stats::percentile(&rates, 0.5),
    );
    out.put(
        "sched.single_unpinned.records_per_s_max",
        rates[rates.len() - 1],
    );
    Ok(())
}

/// `pipe-hop`.
pub fn run_hop(cfg: &RunConfig, out: &mut Ledger, tracer: &mut Tracer) -> Result<(), String> {
    run_pipes(cfg, &hop_sizes(cfg.smoke), out, tracer)
}

/// `pipe-fleet`.
pub fn run_fleet(cfg: &RunConfig, out: &mut Ledger, tracer: &mut Tracer) -> Result<(), String> {
    run_pipes(cfg, &fleet_sizes(cfg.smoke), out, tracer)
}
