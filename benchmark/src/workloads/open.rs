//! `invoke-open`: arrival-driven use of the kernel. Set-up spawns 100k
//! resident stream Ejects and lets them park; then one generator thread
//! fires `Kernel::invoke` on a fixed schedule at seeded-random targets —
//! 10k/s, then 40k/s — never waiting for a reply before the next send
//! (an open loop: a slow kernel gets no relief). Every request hits a
//! parked Eject through a registry 100k deep.
//!
//! Latency is the responder's own reply stamp minus the instant the request
//! was *due*, so a stall is charged to every request it delayed, and the
//! generator's lateness is reported beside it.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use eden_core::{Uid, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, Kernel, ObsConfig, ReplyHandle};

use super::{
    best, better_decile, cheapest, fresh_kernel, put_process_metrics, repeat_for, traced_obs,
    RunConfig, TracedRep,
};
use crate::decl::Better;
use crate::host::{process_cpu_seconds, rss_bytes, thread_cpu_seconds};
use crate::inputs;
use crate::probes;
use crate::report::Ledger;
use crate::stats;
use crate::trace::Tracer;

/// Requests per second of the two phases, and the suffix each goes by.
const RATES: [(u32, &str); 2] = [(10_000, "r10k"), (40_000, "r40k")];

/// A 40k/s request is on time when answered `Ok` within this of its due
/// instant.
const ON_TIME: Duration = Duration::from_micros(250);

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the one clock both ends of a request read.
fn now_ns() -> i64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as i64
}

/// The resident stream: answers any invocation with the instant it replied.
struct StampStream;

impl EjectBehavior for StampStream {
    fn type_name(&self) -> &'static str {
        "BenchStampStream"
    }

    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Int(now_ns())));
    }
}

struct Sizes {
    /// Resident Ejects.
    ejects: usize,
    /// Seconds each rate is held, per cycle.
    phase_s: f64,
    /// Seconds each rate is held in the traced cycle.
    traced_phase_s: f64,
    /// Fewest cycles (each sets up afresh).
    min_cycles: usize,
}

/// A kernel with its resident population parked.
struct Population {
    kernel: Kernel,
    kernel_epoch: Instant,
    uids: Vec<Uid>,
    setup_s: f64,
    spawn_ns_per_eject: f64,
    rss_bytes_per_eject: f64,
}

fn populate(ejects: usize, obs: ObsConfig, tracer: &mut Tracer) -> Result<Population, String> {
    let setup_from = Instant::now();
    let ((kernel, kernel_epoch), _) = tracer.span("eden-kernel:build", |_| fresh_kernel(obs));
    let rss_before = rss_bytes();
    let (spawned, _) = tracer.span("eden-kernel:spawn residents", |_| {
        let from = Instant::now();
        let uids = (0..ejects)
            .map(|_| kernel.spawn(Box::new(StampStream)))
            .collect::<Result<Vec<Uid>, _>>()
            .map_err(|e| format!("resident Eject does not spawn: {e}"))?;
        Ok::<_, String>((uids, from.elapsed()))
    });
    let (uids, spawn_time) = spawned?;
    // Let the population drain through activation and park, so the load
    // meets idle workers and parked Ejects, as an arriving request would.
    let ((), _) = tracer.span("eden-kernel:park residents", |_| {
        let give_up = Instant::now() + Duration::from_secs(60);
        while kernel.metrics_snapshot().sched.parked_ejects < ejects as u64
            && Instant::now() < give_up
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    let rss_after = rss_bytes();
    Ok(Population {
        kernel,
        kernel_epoch,
        uids,
        setup_s: setup_from.elapsed().as_secs_f64(),
        spawn_ns_per_eject: spawn_time.as_nanos() as f64 / ejects as f64,
        rss_bytes_per_eject: rss_after.saturating_sub(rss_before) as f64 / ejects as f64,
    })
}

/// A tenth of a second of one phase. Figures are taken per window and
/// summarised over windows, so that a stall of the host spoils the windows
/// it falls in and not the run (README, "Noise").
#[derive(Debug, Clone, Copy)]
struct Window {
    /// Median of reply stamp minus due instant, microseconds; a request not
    /// answered `Ok` counts as infinitely late.
    p50_us: f64,
    /// Share of the window's requests answered `Ok` within [`ON_TIME`].
    on_time_share: f64,
    /// Process CPU time less the generator's own, per request, microseconds.
    cpu_us_per_request: f64,
}

/// What one phase (one rate held for a while) measured.
#[derive(Debug, Default)]
struct Phase {
    requests: u64,
    /// Requests not answered `Ok` with a stamp.
    failed: u64,
    windows: Vec<Window>,
    /// Reply stamp minus due instant, microseconds (infinite if failed).
    latency_us: Vec<f64>,
    /// Send instant minus due instant, microseconds.
    late_us: Vec<f64>,
    /// First due instant to last reply stamp, seconds.
    wall_s: f64,
}

/// Kernel-side CPU seconds so far, as the generator thread sees them: the
/// generator spins by design, so its own time is taken out.
fn kernel_side_cpu_seconds() -> f64 {
    process_cpu_seconds() - thread_cpu_seconds()
}

/// Hold `rate` requests a second, one per target, from one generator thread.
fn phase(kernel: &Kernel, uids: &[Uid], targets: &[u32], rate: u32) -> Result<Phase, String> {
    let period_ns = 1_000_000_000 / i64::from(rate);
    let per_window = (rate / 10) as usize;
    let generator = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let first_due = now_ns() + 1_000_000;
                let mut pending = Vec::with_capacity(targets.len());
                let mut late_us = Vec::with_capacity(targets.len());
                let mut cpu_marks = Vec::with_capacity(targets.len() / per_window + 2);
                for (i, &target) in targets.iter().enumerate() {
                    if i % per_window == 0 {
                        cpu_marks.push(kernel_side_cpu_seconds());
                    }
                    let due = first_due + i as i64 * period_ns;
                    let mut now = now_ns();
                    while now < due {
                        std::hint::spin_loop();
                        now = now_ns();
                    }
                    late_us.push((now - due) as f64 / 1e3);
                    pending.push(kernel.invoke(uids[target as usize], "Read", Value::Unit));
                }
                // Only now, with the schedule played out, look at replies.
                let mut last_stamp = first_due;
                let mut failed = 0;
                let latency_us: Vec<f64> = pending
                    .into_iter()
                    .enumerate()
                    .map(|(i, reply)| match reply.wait() {
                        Ok(Value::Int(stamp)) => {
                            last_stamp = last_stamp.max(stamp);
                            (stamp - (first_due + i as i64 * period_ns)) as f64 / 1e3
                        }
                        _ => {
                            failed += 1;
                            f64::INFINITY
                        }
                    })
                    .collect();
                cpu_marks.push(kernel_side_cpu_seconds());

                let limit = ON_TIME.as_secs_f64() * 1e6;
                let windows = latency_us
                    .chunks_exact(per_window)
                    .zip(cpu_marks.windows(2))
                    .map(|(chunk, cpu)| Window {
                        p50_us: stats::median(chunk),
                        on_time_share: chunk.iter().filter(|l| **l <= limit).count() as f64
                            / chunk.len() as f64,
                        cpu_us_per_request: (cpu[1] - cpu[0]) * 1e6 / chunk.len() as f64,
                    })
                    .collect();
                Phase {
                    requests: targets.len() as u64,
                    failed,
                    windows,
                    latency_us,
                    late_us,
                    wall_s: (last_stamp - first_due) as f64 / 1e9,
                }
            })
            .join()
    });
    generator.map_err(|_| "generator thread panicked".to_owned())
}

/// One cycle: populate a fresh kernel, then hold each rate in turn.
struct Cycle {
    population: Population,
    phases: [Phase; 2],
    /// Kernel invocations counted over the two phases.
    invocations: u64,
    /// Harness span of each phase.
    phase_spans: [u64; 2],
    /// Peaks seen between the phases of a traced cycle (zeros otherwise).
    peaks: super::Peaks,
}

fn cycle(
    cfg: &RunConfig,
    sizes: &Sizes,
    phase_s: f64,
    obs: ObsConfig,
    index: usize,
    out: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<Cycle, String> {
    let population = populate(sizes.ejects, obs, tracer)?;
    // A snapshot walks every mailbox and, traced, every Eject's histogram:
    // 10 to 400 ms here, during which requests queue. So a traced cycle
    // looks at the peaks between its phases, never beside them.
    let mut peaks = super::Peaks::default();
    if tracer.enabled() {
        peaks.observe(&population.kernel);
    }
    let before = population.kernel.metrics().snapshot();
    let mut phases = [Phase::default(), Phase::default()];
    let mut phase_spans = [0u64; 2];
    for (p, (rate, key)) in RATES.iter().enumerate() {
        let requests = (f64::from(*rate) * phase_s) as usize;
        let seed = inputs::derive(cfg.seed, (index * RATES.len() + p) as u64);
        let targets = inputs::indices(requests, sizes.ejects, seed);
        let (measured, span) = tracer.span(&format!("harness:phase {key}"), |_| {
            phase(&population.kernel, &population.uids, &targets, *rate)
        });
        phases[p] = measured?;
        phase_spans[p] = span;
        if tracer.enabled() {
            peaks.observe(&population.kernel);
        }
        out.check(
            &format!("{key}: every request answered Ok"),
            phases[p].requests,
            phases[p].failed,
        );
    }
    let invocations = population
        .kernel
        .metrics()
        .snapshot()
        .since(&before)
        .invocations;
    Ok(Cycle {
        population,
        phases,
        invocations,
        phase_spans,
        peaks,
    })
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    stats::sort(&mut values);
    values
}

/// `invoke-open`.
pub fn run(cfg: &RunConfig, out: &mut Ledger, tracer: &mut Tracer) -> Result<(), String> {
    let sizes = if cfg.smoke {
        Sizes {
            ejects: 2_000,
            phase_s: 0.1,
            traced_phase_s: 0.1,
            min_cycles: 2,
        }
    } else {
        Sizes {
            ejects: 100_000,
            phase_s: 1.5,
            traced_phase_s: 0.5,
            min_cycles: 2,
        }
    };
    out.note(format!(
        "sizes resident_ejects {} rates 10000/s 40000/s seconds_per_rate {} on_time_us {}",
        sizes.ejects,
        sizes.phase_s,
        ON_TIME.as_micros()
    ));
    now_ns();

    let mut first_rss = None;
    let repeated = repeat_for(cfg.measure_budget(), sizes.min_cycles, |i| {
        let c = cycle(
            cfg,
            &sizes,
            sizes.phase_s,
            ObsConfig::off(),
            i,
            out,
            &mut Tracer::off(),
        )?;
        // Only the first population of a process grows the heap; later ones
        // reuse what it freed and would read as costing nothing.
        first_rss.get_or_insert(c.population.rss_bytes_per_eject);
        c.population.kernel.shutdown();
        Ok(c)
    })?;
    let cycles = repeated.reps;

    let requests: u64 = cycles
        .iter()
        .flat_map(|c| &c.phases)
        .map(|p| p.requests)
        .sum();
    let invocations: u64 = cycles.iter().map(|c| c.invocations).sum();
    let windows = |p: usize| cycles.iter().flat_map(move |c| c.phases[p].windows.iter());
    // Requests answered per second of schedule, per cycle: an open loop's
    // throughput is its offered rate unless replies fail or trail off.
    let rates: Vec<f64> = cycles
        .iter()
        .map(|c| {
            let answered: u64 = c.phases.iter().map(|p| p.requests - p.failed).sum();
            answered as f64 / c.phases.iter().map(|p| p.wall_s).sum::<f64>()
        })
        .collect();
    let cpu: Vec<f64> = windows(0)
        .chain(windows(1))
        .map(|w| w.cpu_us_per_request)
        .collect();
    let setup: Vec<f64> = cycles.iter().map(|c| c.population.setup_s).collect();
    out.put("records_per_s", better_decile(&rates, Better::Higher));
    out.put("cpu_us_per_record", better_decile(&cpu, Better::Lower));
    out.put("setup_s", best(&setup, Better::Lower));
    out.put(
        "invocations_per_record",
        invocations as f64 / requests as f64,
    );
    let on_time: Vec<f64> = windows(1).map(|w| w.on_time_share).collect();
    out.put("on_time_share", better_decile(&on_time, Better::Higher));
    put_figures(&cycles, first_rss.unwrap_or(0.0), out);
    if cfg.traced {
        drop(cycles);
        traced_phase(cfg, &sizes, out, tracer)?;
    }
    put_process_metrics(out, repeated.first_rep_peak_rss);
    Ok(())
}

/// The figures only this workload's cycles yield: median latency per rate,
/// residency and spawn cost, and — for a traced run — the latency tail and
/// the generator's own lateness.
fn put_figures(cycles: &[Cycle], rss_bytes_per_eject: f64, out: &mut Ledger) {
    out.put_probe("rss_bytes_per_eject", rss_bytes_per_eject);
    for (p, (rate, key)) in RATES.iter().enumerate() {
        let p50: Vec<f64> = cycles
            .iter()
            .flat_map(|c| &c.phases[p].windows)
            .map(|w| w.p50_us)
            .collect();
        out.put_probe(
            &format!("lat_p50_us.{key}"),
            better_decile(&p50, Better::Lower),
        );
        out.note(format!(
            "lat_p50_us.{key} over {} windows of {} requests in {} cycles: median {:.1}",
            p50.len(),
            rate / 10,
            cycles.len(),
            stats::median(&p50)
        ));
    }
    let pooled = |pick: fn(&Phase) -> &Vec<f64>, phases: std::ops::Range<usize>| {
        sorted(
            cycles
                .iter()
                .flat_map(|c| &c.phases[phases.clone()])
                .flat_map(|p| pick(p).iter().copied())
                .collect(),
        )
    };
    let late = pooled(|p| &p.late_us, 0..2);
    let latency = pooled(|p| &p.latency_us, 1..2);
    let (late_max, late_p99) = (
        late.last().copied().unwrap_or(0.0),
        stats::percentile(&late, 0.99),
    );
    out.put_probe("gen.late_max_us", late_max);
    out.put_probe("gen.late_p99_us", late_p99);
    out.note(format!(
        "generator sent {} requests late by p99 {late_p99:.1} us, at most {late_max:.1} us",
        late.len()
    ));
    out.put_probe("kernel.invoke.lat_p90_us", stats::percentile(&latency, 0.9));
    out.put_probe(
        "kernel.invoke.lat_p99_us",
        stats::percentile(&latency, 0.99),
    );
    let spawn: Vec<f64> = cycles
        .iter()
        .map(|c| c.population.spawn_ns_per_eject)
        .collect();
    out.put_probe("kernel.spawn_ns_per_eject", stats::median(&spawn));
}

/// Stand in for `invoke-open` in another workload's traced run: one small
/// cycle under that workload's CPU placement.
pub fn probe(cfg: &RunConfig, out: &mut Ledger) -> Result<(), String> {
    let sizes = Sizes {
        ejects: 2_000,
        phase_s: 0.2,
        traced_phase_s: 0.2,
        min_cycles: 1,
    };
    now_ns();
    let c = cycle(
        cfg,
        &sizes,
        sizes.phase_s,
        ObsConfig::off(),
        0,
        out,
        &mut Tracer::off(),
    )?;
    c.population.kernel.shutdown();
    let rss = c.population.rss_bytes_per_eject;
    put_figures(&[c], rss, out);
    Ok(())
}

fn traced_phase(
    cfg: &RunConfig,
    sizes: &Sizes,
    out: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<(), String> {
    probes::invocation(cfg.smoke, out)?;

    // The same small cycle with the kernel's tracing off and on. An open
    // loop's wall time is its schedule's, and its latency at 40 000/s jumps
    // from microseconds to milliseconds if looking pushes the kernel past
    // what it can serve; what looking costs is the CPU time a request takes.
    let requests: f64 = RATES
        .iter()
        .map(|(r, _)| f64::from(*r) * sizes.traced_phase_s)
        .sum();
    let obs = traced_obs(requests as usize + 1_024);
    let cpu_us = |c: &Cycle| {
        let windows = c.phases.iter().flat_map(|p| &p.windows);
        stats::median(&windows.map(|w| w.cpu_us_per_request).collect::<Vec<_>>())
    };
    let mut small = |obs: ObsConfig| {
        cheapest(
            || {
                let c = cycle(
                    cfg,
                    sizes,
                    sizes.traced_phase_s,
                    obs,
                    0,
                    out,
                    &mut Tracer::off(),
                )?;
                c.population.kernel.shutdown();
                Ok(cpu_us(&c))
            },
            |cpu_us| *cpu_us,
        )
    };
    let untraced_cpu_us = small(ObsConfig::off())?;
    let traced_cpu_us = small(obs)?;

    let payload_before = eden_core::payload::snapshot();
    let (traced, _) = tracer.span("harness:traced cycle", |t| {
        cycle(cfg, sizes, sizes.traced_phase_s, obs, 0, out, t)
    });
    let traced = traced?;
    let payload = eden_core::payload::snapshot().since(&payload_before);
    let kernel = &traced.population.kernel;
    let snapshot = kernel.metrics_snapshot();
    let spans = kernel.spans();
    // Every request is a root span of its own; hang each under the phase
    // whose window it started in.
    for span in &traced.phase_spans {
        let Some(host) = tracer.span_by_id(*span).cloned() else {
            continue;
        };
        let base = tracer.ns(traced.population.kernel_epoch);
        let of_phase: Vec<_> = spans
            .iter()
            .filter(|s| (host.start_ns..host.end_ns).contains(&(base + s.start_ns)))
            .cloned()
            .collect();
        tracer.add_kernel_spans(*span, traced.population.kernel_epoch, &of_phase);
    }
    kernel.shutdown();

    TracedRep {
        snapshot: &snapshot,
        spans: &spans,
        peaks: traced.peaks,
        payload,
        traced_cost: traced_cpu_us,
        untraced_cost: untraced_cpu_us,
    }
    .put(out);
    super::probe_suite(cfg, out)
}
