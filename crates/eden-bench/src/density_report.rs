//! Density-plane report — the `--density-json` mode of the `experiments`
//! binary.
//!
//! Emits `BENCH_density.json` answering the scheduler tentpole's two
//! questions:
//!
//! * `resident`: how much memory and how many OS threads a parked
//!   read-only stream costs, over the full resident population (1M
//!   streams, 100k in `--smoke`).
//! * `goodput`: depth-4 identity-pipeline throughput, plus the
//!   goodput-vs-workers curve for the pool.

use std::time::{Duration, Instant};

use eden_core::Value;
use eden_kernel::{
    EjectBehavior, EjectContext, Invocation, Kernel, ReplyHandle, SchedulerConfig,
};
use eden_transput::Discipline;

use crate::runner;

/// Workload dials for the density report.
#[derive(Debug, Clone)]
pub struct DensityConfig {
    /// Parked read-only streams held resident.
    pub resident: usize,
    /// Streams probed with a `Read` after the population parks.
    pub sample_reads: usize,
    /// Records pushed through each goodput pipeline.
    pub goodput_records: i64,
    /// Identity stages in the goodput pipelines.
    pub depth: usize,
    /// Worker-pool sizes for the goodput-vs-workers curve.
    pub workers_curve: Vec<usize>,
    /// Concurrent pipelines in the multi-pipeline arm.
    pub multi_pipelines: usize,
    /// Records pushed through *each* pipeline of the multi arm.
    pub multi_records: i64,
    /// Best-of-N rounds per curve point. The curve is sampled
    /// round-robin (every worker count once per round) so machine-wide
    /// drift lands on all points equally rather than skewing the tail.
    pub curve_samples: usize,
}

impl DensityConfig {
    /// CI-sized run: 100k resident streams.
    pub fn smoke() -> Self {
        DensityConfig {
            resident: 100_000,
            sample_reads: 256,
            goodput_records: 600,
            depth: 4,
            workers_curve: vec![1, 2, 4, 8],
            multi_pipelines: 8,
            multi_records: 10_000,
            curve_samples: 6,
        }
    }

    /// Full run: the paper-scale 1M resident streams.
    pub fn full() -> Self {
        DensityConfig {
            resident: 1_000_000,
            sample_reads: 1024,
            goodput_records: 20_000,
            depth: 4,
            workers_curve: vec![1, 2, 4, 8],
            multi_pipelines: 8,
            multi_records: 25_000,
            curve_samples: 14,
        }
    }
}

/// A minimal read-only stream: replies to `Read` with the next integer.
/// One of these parked on its mailbox is the unit the density claim
/// prices.
struct ResidentStream {
    next: i64,
}

impl EjectBehavior for ResidentStream {
    fn type_name(&self) -> &'static str {
        "ResidentStream"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Read" => {
                let v = self.next;
                self.next += 1;
                reply.reply(Ok(Value::Int(v)));
            }
            _ => reply.reply(Err(eden_core::EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op.clone(),
            })),
        }
    }
}

/// `VmRSS` (kB) and `Threads` from `/proc/self/status`; zeros when the
/// file is unavailable (non-Linux), which the report records as-is.
fn proc_status() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let mut rss_kb = 0;
    let mut threads = 0;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            rss_kb = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        } else if let Some(rest) = line.strip_prefix("Threads:") {
            threads = rest.trim().parse().unwrap_or(0);
        }
    }
    (rss_kb, threads)
}

struct ResidentArm {
    count: usize,
    rss_before_kb: u64,
    rss_after_kb: u64,
    threads_before: u64,
    threads_after: u64,
    resident_ejects: u64,
    parked_ejects: u64,
    spawn_seconds: f64,
    probe_ok: usize,
    probe_total: usize,
}

impl ResidentArm {
    fn bytes_per_eject(&self) -> f64 {
        self.rss_after_kb.saturating_sub(self.rss_before_kb) as f64 * 1024.0
            / self.count.max(1) as f64
    }

    fn threads_per_eject(&self) -> f64 {
        self.threads_after.saturating_sub(self.threads_before) as f64 / self.count.max(1) as f64
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "      \"count\": {},\n",
                "      \"rss_before_kb\": {},\n",
                "      \"rss_after_kb\": {},\n",
                "      \"rss_bytes_per_eject\": {:.1},\n",
                "      \"threads_before\": {},\n",
                "      \"threads_after\": {},\n",
                "      \"threads_per_eject\": {:.4},\n",
                "      \"resident_ejects\": {},\n",
                "      \"parked_ejects\": {},\n",
                "      \"spawn_seconds\": {:.3},\n",
                "      \"probe_ok\": {},\n",
                "      \"probe_total\": {}\n",
                "    }}"
            ),
            self.count,
            self.rss_before_kb,
            self.rss_after_kb,
            self.bytes_per_eject(),
            self.threads_before,
            self.threads_after,
            self.threads_per_eject(),
            self.resident_ejects,
            self.parked_ejects,
            self.spawn_seconds,
            self.probe_ok,
            self.probe_total,
        )
    }
}

/// Hold `count` parked streams resident on `kernel`, measure the RSS and
/// thread deltas, and probe a sample with a `Read` to prove the parked
/// population is live, not leaked.
fn resident_arm(kernel: &Kernel, count: usize, sample_reads: usize) -> ResidentArm {
    let (rss_before_kb, threads_before) = proc_status();
    let t0 = Instant::now();
    let mut uids = Vec::with_capacity(count);
    for _ in 0..count {
        uids.push(
            kernel
                .spawn(Box::new(ResidentStream { next: 0 }))
                .expect("spawn resident stream"),
        );
    }
    // Wait for the population to drain through activation and park.
    let parked_deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let sched = kernel.metrics_snapshot().sched;
        if sched.parked_ejects >= count as u64 || Instant::now() > parked_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let spawn_seconds = t0.elapsed().as_secs_f64();
    let (rss_after_kb, threads_after) = proc_status();
    let snap = kernel.metrics_snapshot().sched;

    let probe_total = sample_reads.min(count);
    let stride = (count / probe_total.max(1)).max(1);
    let mut probe_ok = 0;
    for uid in uids.iter().step_by(stride).take(probe_total) {
        if kernel.invoke(*uid, "Read", Value::Unit).wait() == Ok(Value::Int(0)) {
            probe_ok += 1;
        }
    }
    ResidentArm {
        count,
        rss_before_kb,
        rss_after_kb,
        threads_before,
        threads_after,
        resident_ejects: snap.resident_ejects,
        parked_ejects: snap.parked_ejects,
        spawn_seconds,
        probe_ok,
        probe_total,
    }
}

/// Depth-`depth` identity-pipeline goodput (records/s) on `kernel`.
fn goodput(kernel: &Kernel, records: i64, depth: usize) -> f64 {
    let run = runner::run_identity(
        kernel,
        Discipline::ReadOnly { read_ahead: 8 },
        (0..records).map(Value::Int).collect(),
        depth,
        16,
    );
    assert_eq!(run.records_out, records as u64, "goodput pipeline lost records");
    run.records_out as f64 / run.wall.as_secs_f64().max(f64::EPSILON)
}

/// Aggregate goodput (records/s) of `pipelines` concurrent depth-`depth`
/// identity pipelines racing on one kernel. This is the arm the workers
/// curve is judged on: a single pipeline leaves most of the pool idle by
/// construction, while eight concurrent ones give every worker something
/// to run and punish any dispatch path whose cost grows with pool size.
fn multi_goodput(kernel: &Kernel, records: i64, depth: usize, pipelines: usize) -> f64 {
    let t0 = Instant::now();
    let drivers: Vec<_> = (0..pipelines)
        .map(|_| {
            let kernel = kernel.clone();
            std::thread::spawn(move || {
                let run = runner::run_identity(
                    &kernel,
                    Discipline::ReadOnly { read_ahead: 8 },
                    (0..records).map(Value::Int).collect(),
                    depth,
                    16,
                );
                assert_eq!(
                    run.records_out, records as u64,
                    "multi-pipeline arm lost records"
                );
            })
        })
        .collect();
    for d in drivers {
        d.join().expect("multi-pipeline driver");
    }
    (records as f64 * pipelines as f64) / t0.elapsed().as_secs_f64().max(f64::EPSILON)
}

/// The rendered report plus the machine-readable curve the caller's
/// scaling guard judges (the experiments binary fails the run when the
/// multi-pipeline arm's widest pool loses to its single-worker point).
#[derive(Debug)]
pub struct DensityReport {
    /// The `BENCH_density.json` body.
    pub json: String,
    /// `(workers, records_per_second)` for the multi-pipeline arm
    /// (per-point medians, for display).
    pub multi_curve: Vec<(usize, f64)>,
    /// Median of the per-round paired differences between the widest
    /// pool and the single-worker point of the multi-pipeline arm
    /// (rec/s). The scaling guard judges this: pairing cancels host
    /// drift that unpaired medians would absorb.
    pub widest_paired_gain: f64,
}

/// Run every arm and render `BENCH_density.json`.
pub fn density_report(cfg: &DensityConfig, smoke: bool) -> DensityReport {
    // Resident population (the density claim).
    let sched_kernel = Kernel::builder().build();
    let sched_arm = resident_arm(&sched_kernel, cfg.resident, cfg.sample_reads);
    sched_kernel.shutdown();

    // Goodput: the default pool, then the workers curve.
    let sched_kernel = Kernel::builder().build();
    let sched_rps = goodput(&sched_kernel, cfg.goodput_records, cfg.depth);
    sched_kernel.shutdown();

    // Workers curves, single- and multi-pipeline, best of N rounds.
    // Round-robin across pool sizes inside each round so a slow spell on
    // the host degrades every point, not whichever happened to run last;
    // alternate the direction per round so process-lifetime drift
    // (allocator state, page-cache warmth) doesn't always tax the same
    // end of the curve. Each point reports its per-round MEDIAN: the
    // curve's claim is about ordering between points, and a median
    // converges on the typical rate where a max would report whichever
    // point caught the luckiest host burst.
    let samples = cfg.curve_samples.max(1);
    let mut single_runs = vec![Vec::with_capacity(samples); cfg.workers_curve.len()];
    let mut multi_runs = vec![Vec::with_capacity(samples); cfg.workers_curve.len()];
    // Walking the curve in order (and back, on odd rounds) keeps every
    // adjacent pair of points sampled within seconds of each other,
    // which is what makes the paired differencing below cancel host
    // drift.
    let order: Vec<(usize, usize)> = cfg.workers_curve.iter().copied().enumerate().collect();
    for round in 0..samples {
        let pass: Vec<(usize, usize)> = if round % 2 == 0 {
            order.clone()
        } else {
            order.iter().rev().copied().collect()
        };
        for (i, workers) in pass {
            let kernel = Kernel::builder()
                .scheduler(SchedulerConfig { workers })
                .build();
            let s = goodput(&kernel, cfg.goodput_records, cfg.depth);
            let m = multi_goodput(&kernel, cfg.multi_records, cfg.depth, cfg.multi_pipelines);
            kernel.shutdown();
            single_runs[i].push(s);
            multi_runs[i].push(m);
        }
    }
    let median = |runs: &[f64]| -> f64 {
        let mut v = runs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("goodput is never NaN"));
        if v.len() % 2 == 1 {
            v[v.len() / 2]
        } else {
            (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
        }
    };
    let single_best: Vec<f64> = single_runs.iter().map(|r| median(r)).collect();
    let multi_best: Vec<f64> = multi_runs.iter().map(|r| median(r)).collect();
    let curve_rows: Vec<String> = cfg
        .workers_curve
        .iter()
        .zip(&single_best)
        .map(|(&workers, &rps)| {
            format!(
                "      {{ \"workers\": {workers}, \"records_per_second\": {rps:.1}, \
                 \"vs_one_worker\": {:.3} }}",
                rps / single_best[0].max(f64::EPSILON)
            )
        })
        .collect();
    let multi_rows: Vec<String> = cfg
        .workers_curve
        .iter()
        .zip(&multi_best)
        .map(|(&workers, &rps)| {
            format!(
                "        {{ \"workers\": {workers}, \"records_per_second\": {rps:.1}, \
                 \"vs_one_worker\": {:.3} }}",
                rps / multi_best[0].max(f64::EPSILON)
            )
        })
        .collect();
    let multi_scaling = multi_best.last().copied().unwrap_or(0.0)
        / multi_best.first().copied().unwrap_or(0.0).max(f64::EPSILON);
    // Ordering verdicts are judged on PAIRED per-round differences
    // between adjacent curve points, not on the point medians: the two
    // points of an adjacent pair are sampled seconds apart inside the
    // same round, so a machine-wide slow spell lands on both and
    // cancels in the difference, where it would skew unpaired medians
    // by more than the effect under test. The trimmed mean of the
    // diffs (unlike the median) also cancels linear drift exactly
    // under the alternating visit order, and the trim drops the
    // one-off spike a shared host throws in.
    let paired_gain = |a: usize, b: usize| -> f64 {
        let mut diffs: Vec<f64> = multi_runs[a]
            .iter()
            .zip(&multi_runs[b])
            .map(|(&lo, &hi)| hi - lo)
            .collect();
        diffs.sort_by(|x, y| x.partial_cmp(y).expect("goodput is never NaN"));
        let trim = diffs.len() / 4;
        let kept = &diffs[trim..diffs.len() - trim];
        kept.iter().sum::<f64>() / kept.len().max(1) as f64
    };
    let adjacent_gains: Vec<f64> = (1..cfg.workers_curve.len())
        .map(|i| paired_gain(i - 1, i))
        .collect();
    // Telescoping the adjacent gains estimates the widest pool's edge
    // over the single-worker point with every link drift-cancelled.
    let widest_paired_gain: f64 = adjacent_gains.iter().sum();
    // Non-decreasing within measurement resolution: a pair counts as
    // ordered when its drift-cancelled gain clears a band of 3% of the
    // single-worker point — the residual per-pair wobble of a shared
    // host, published alongside the verdict so the claim is auditable.
    let noise_band = multi_best.first().copied().unwrap_or(0.0) * 0.03;
    let multi_monotone = adjacent_gains.iter().all(|&g| g >= -noise_band);
    let multi_curve: Vec<(usize, f64)> = cfg
        .workers_curve
        .iter()
        .copied()
        .zip(multi_best.iter().copied())
        .collect();

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"mode\": \"{}\",\n",
            "  \"resident\": {{\n",
            "    \"scheduler\": {},\n",
            "    \"rss_bytes_per_eject_scheduler\": {:.1},\n",
            "    \"threads_per_eject_scheduler\": {:.4}\n",
            "  }},\n",
            "  \"goodput\": {{\n",
            "    \"depth\": {},\n",
            "    \"records\": {},\n",
            "    \"scheduler_records_per_second\": {:.1},\n",
            "    \"curve_samples\": {},\n",
            "    \"workers_curve\": [\n{}\n    ],\n",
            "    \"multi_pipeline\": {{\n",
            "      \"pipelines\": {},\n",
            "      \"records_per_pipeline\": {},\n",
            "      \"workers_curve\": [\n{}\n      ],\n",
            "      \"scaling_widest_over_one\": {:.3},\n",
            "      \"widest_paired_gain_rec_s\": {:.1},\n",
            "      \"adjacent_paired_gains_rec_s\": [{}],\n",
            "      \"noise_band_rec_s\": {:.1},\n",
            "      \"monotone_non_decreasing\": {}\n",
            "    }}\n",
            "  }}\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        sched_arm.json(),
        sched_arm.bytes_per_eject(),
        sched_arm.threads_per_eject(),
        cfg.depth,
        cfg.goodput_records,
        sched_rps,
        samples,
        curve_rows.join(",\n"),
        cfg.multi_pipelines,
        cfg.multi_records,
        multi_rows.join(",\n"),
        multi_scaling,
        widest_paired_gain,
        adjacent_gains
            .iter()
            .map(|g| format!("{g:.1}"))
            .collect::<Vec<_>>()
            .join(", "),
        noise_band,
        multi_monotone,
    );
    DensityReport {
        json,
        multi_curve,
        widest_paired_gain,
    }
}
