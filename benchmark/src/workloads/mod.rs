//! The five workloads and what they share: the run configuration, the
//! time-budgeted repetition loop, and the per-repetition accounting from
//! which every workload's end-to-end figures are taken the same way.

use std::time::{Duration, Instant};

use eden_kernel::{Kernel, KernelSnapshot, ObsConfig, SpanRecord};

use crate::decl::{Better, Workload};
use crate::report::Ledger;
use crate::stats;

pub mod bulk;
pub mod hop;
pub mod open;
pub mod recover;

/// One run, as the command line asked for it.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Drives input text, target choice and the fault plan.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Also run the layer probes and a traced repetition, and print the
    /// per-layer metrics.
    pub traced: bool,
    /// Tiny sizes (under two seconds a workload), for the tests.
    pub smoke: bool,
    /// Damage the reference before comparing, to show a mismatch fails.
    pub corrupt_reference: bool,
}

impl RunConfig {
    /// Time for the untraced repetitions. A traced run spends the rest of
    /// its `seconds` on probes and the traced repetition.
    pub fn measure_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * if self.traced { 0.4 } else { 1.0 })
    }
}

/// Deadline handed to every blocking pipeline call: far beyond any run,
/// so it fires only on a hang.
pub const DEADLINE: Duration = Duration::from_secs(150);

/// Run `workload` under `cfg`, writing figures and checks into `out`.
/// `tracer` is used by traced runs only.
pub fn run(
    cfg: &RunConfig,
    out: &mut Ledger,
    tracer: &mut crate::trace::Tracer,
) -> Result<(), String> {
    match cfg.workload {
        Workload::PipeHop => hop::run_hop(cfg, out, tracer),
        Workload::PipeFleet => hop::run_fleet(cfg, out, tracer),
        Workload::PipeBulk => bulk::run(cfg, out, tracer),
        Workload::InvokeOpen => open::run(cfg, out, tracer),
        Workload::RecoverDurable => recover::run(cfg, out, tracer),
    }
}

/// The rest of the probe suite, for a traced run: every workload module but
/// the run's own stands in at a small size, under the run's CPU placement,
/// for the per-layer figures only its workload measures at full size. What
/// the run measured itself stands ([`Ledger::put_probe`]).
pub fn probe_suite(cfg: &RunConfig, out: &mut Ledger) -> Result<(), String> {
    let own = cfg.workload;
    if !matches!(own, Workload::PipeHop | Workload::PipeFleet) {
        hop::probe(cfg, out)?;
    }
    if own != Workload::PipeBulk {
        bulk::probe(cfg, out)?;
    }
    if own != Workload::InvokeOpen {
        open::probe(cfg, out)?;
    }
    if own != Workload::RecoverDurable {
        recover::probe(cfg, out)?;
    }
    Ok(())
}

/// One timed section: one discipline's data phase within a repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Records delivered.
    pub records: u64,
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Process CPU time over the section, seconds.
    pub cpu_s: f64,
}

impl Timed {
    /// Records per second.
    pub fn rate(&self) -> f64 {
        self.records as f64 / self.wall_s
    }

    /// CPU microseconds per record.
    pub fn cpu_us_per_record(&self) -> f64 {
        self.cpu_s * 1e6 / self.records as f64
    }
}

/// What one repetition of a pipeline workload contributed to the end-to-end
/// figures: its set-up time and its three disciplines, in the order run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Everything before the repetition's first timed operation, seconds.
    pub setup_s: f64,
    /// Read-only, write-only, conventional.
    pub arms: [Timed; 3],
}

impl Rep {
    /// Records delivered across the three disciplines.
    pub fn records(&self) -> u64 {
        self.arms.iter().map(|a| a.records).sum()
    }

    /// Summed data-phase wall time, seconds.
    pub fn wall_s(&self) -> f64 {
        self.arms.iter().map(|a| a.wall_s).sum()
    }

    /// Records per second over the repetition.
    pub fn rate(&self) -> f64 {
        self.records() as f64 / self.wall_s()
    }
}

/// The repetitions of one run, and the process's high-water mark when the
/// first of them ended.
#[derive(Debug)]
pub struct Repeated<T> {
    /// What each repetition returned.
    pub reps: Vec<T>,
    /// `VmHWM` after one whole repetition: set-up, timed sections and
    /// teardown. Later repetitions re-use or fragment the heap as the
    /// allocator pleases (invoke-open's third population has been seen to
    /// add anything from 20 to 80 MB), so the first one's mark is what a
    /// user who runs the workload once would see, and it repeats.
    pub first_rep_peak_rss: u64,
}

/// Repeat `body` until the next repetition would overrun `budget`, and at
/// least `min_reps` times. `body` gets the repetition's index.
pub fn repeat_for<T>(
    budget: Duration,
    min_reps: usize,
    mut body: impl FnMut(usize) -> Result<T, String>,
) -> Result<Repeated<T>, String> {
    let start = Instant::now();
    let mut reps = vec![body(0)?];
    let first_rep_peak_rss = crate::host::peak_rss_bytes();
    loop {
        let mean = start.elapsed() / reps.len() as u32;
        if reps.len() >= min_reps && start.elapsed() + mean > budget {
            return Ok(Repeated {
                reps,
                first_rep_peak_rss,
            });
        }
        reps.push(body(reps.len())?);
    }
}

/// The decile of `values` on the better side: the ninth of rates, the
/// first of costs. Every disturbance this benchmark has met on a shared
/// host slows a sample down and none speeds one up, so the better decile
/// repeats from run to run where the median does not (README, "Noise"),
/// and it still moves with any change that moves the samples as a whole.
/// Used where samples come by the hundred: the windows of an open loop.
pub fn better_decile(values: &[f64], better: Better) -> f64 {
    let mut sorted = values.to_vec();
    stats::sort(&mut sorted);
    stats::percentile(
        &sorted,
        match better {
            Better::Higher => 0.9,
            Better::Lower => 0.1,
        },
    )
}

/// The best of `values`: the highest rate, the lowest cost. For the few
/// dozen repetitions of a pipeline workload even the better decile is not
/// enough on a bad hour of the host (more than half of them disturbed), and
/// the fastest undisturbed repetition is what repeats (README, "Noise").
pub fn best(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Higher => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        Better::Lower => values.iter().copied().fold(f64::INFINITY, f64::min),
    }
}

/// The end-to-end figures of a pipeline workload. Each discipline's rate and
/// CPU cost is summarised on its own over the repetitions (a discipline's
/// data phase is the unit a disturbance hits or misses) by its best
/// repetition, then the three are combined as they ran, back to back over
/// the same records: records delivered across the three disciplines over the
/// summed data-phase time.
pub fn put_rep_metrics(out: &mut Ledger, reps: &[Rep]) {
    let (mut records, mut wall_s, mut cpu_us) = (0.0, 0.0, 0.0);
    let mut by_arm = Vec::new();
    for arm in 0..3 {
        let of_arm = |pick: fn(&Timed) -> f64| -> Vec<f64> {
            reps.iter().map(|r| pick(&r.arms[arm])).collect()
        };
        let n = stats::median(&of_arm(|a| a.records as f64));
        let rates = of_arm(Timed::rate);
        let rate = best(&rates, Better::Higher);
        records += n;
        wall_s += n / rate;
        cpu_us += n * best(&of_arm(Timed::cpu_us_per_record), Better::Lower);
        by_arm.push(format!(
            "{rate:.0} (ninth decile {:.0}, median {:.0})",
            better_decile(&rates, Better::Higher),
            stats::median(&rates)
        ));
    }
    out.put("records_per_s", records / wall_s);
    out.put("cpu_us_per_record", cpu_us / records);
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    out.put("setup_s", best(&setup, Better::Lower));
    out.note(format!(
        "records_per_s combines each discipline's best of {} repetitions: {}",
        reps.len(),
        by_arm.join(", ")
    ));
}

/// The cheapest by `cost` of three tries of `body`. For the small
/// repetitions a traced run compares: each is a one-shot timing that a stall
/// of the host spoils (README, "Noise").
pub fn cheapest<T>(
    mut body: impl FnMut() -> Result<T, String>,
    cost: impl Fn(&T) -> f64,
) -> Result<T, String> {
    let mut kept = body()?;
    for _ in 1..3 {
        let next = body()?;
        if cost(&next) < cost(&kept) {
            kept = next;
        }
    }
    Ok(kept)
}

/// `eden-transput`'s per-discipline rates, in the order the disciplines run.
pub fn put_discipline_rates(out: &mut Ledger, rates: [f64; 3]) {
    for (key, rate) in ["read_only", "write_only", "conventional"]
        .iter()
        .zip(rates)
    {
        out.put_probe(&format!("transput.{key}.records_per_s"), rate);
    }
}

/// Emit the figures read from the process: the first repetition's peak
/// resident set, and the share of checked operations that failed.
pub fn put_process_metrics(out: &mut Ledger, first_rep_peak_rss: u64) {
    out.put("peak_rss_mb", first_rep_peak_rss as f64 / (1024.0 * 1024.0));
    out.put("failed_share", out.failed_share());
}

/// `on_time_share` for a workload whose operations carry no deadline: an
/// operation is on time when it did not fail.
pub fn put_on_time_without_deadline(out: &mut Ledger) {
    out.put("on_time_share", 1.0 - out.failed_share());
}

/// The observability settings of the traced repetition: spans and
/// histograms on, and room for `invocations` spans on *every* one of the
/// span store's 16 per-thread shards, since a pinned workload can land all
/// of them on one. The rings are reserved, not touched, until used.
pub fn traced_obs(invocations: usize) -> ObsConfig {
    const SPAN_SHARDS: usize = 16;
    ObsConfig {
        spans: true,
        histograms: true,
        span_capacity: invocations.max(1_024) * SPAN_SHARDS,
    }
}

/// A fresh kernel with `obs`, and the harness's estimate of its
/// observability epoch.
pub fn fresh_kernel(obs: ObsConfig) -> (Kernel, Instant) {
    build_kernel(Kernel::builder().observability(obs))
}

/// Build `builder`'s kernel, and estimate its observability epoch.
pub fn build_kernel(builder: eden_kernel::KernelBuilder) -> (Kernel, Instant) {
    let before = Instant::now();
    let kernel = builder.build();
    // The epoch is taken somewhere inside `build`; the midpoint halves the
    // worst-case error, and `Tracer::add_kernel_spans` clamps the rest.
    let epoch = before + before.elapsed() / 2;
    (kernel, epoch)
}

/// A helper thread that polls something every `period` into a state of type
/// `T`, beside a traced repetition, until told to finish.
#[derive(Debug)]
pub struct Sampler<T> {
    stop: std::sync::mpsc::Sender<()>,
    thread: std::thread::JoinHandle<T>,
}

impl<T: Send + 'static> Sampler<T> {
    /// Start polling: `poll` runs at once and then every `period`.
    pub fn start(
        period: Duration,
        mut state: T,
        mut poll: impl FnMut(&mut T) + Send + 'static,
    ) -> Sampler<T> {
        let (stop, stopped) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || loop {
            poll(&mut state);
            match stopped.recv_timeout(period) {
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                _ => return state,
            }
        });
        Sampler { stop, thread }
    }

    /// Stop and return the state.
    pub fn finish(self) -> T {
        let _ = self.stop.send(());
        self.thread.join().expect("sampler thread panicked")
    }
}

/// Peaks of a kernel's snapshot, which a single end-of-run sample would miss.
#[derive(Debug, Clone, Copy, Default)]
pub struct Peaks {
    /// Largest worker-pool size (target plus blocking-compensation spares).
    pub workers: u64,
    /// Deepest single mailbox.
    pub queued_max: u64,
    /// Most Ejects parked at once.
    pub parked_ejects: u64,
}

impl Peaks {
    /// Raise the peaks to what `kernel` shows now.
    pub fn observe(&mut self, kernel: &Kernel) {
        let snap = kernel.metrics_snapshot();
        self.workers = self.workers.max(snap.sched.workers);
        self.queued_max = self.queued_max.max(snap.mailbox.queued_max);
        self.parked_ejects = self.parked_ejects.max(snap.sched.parked_ejects);
    }
}

/// Sample `kernel`'s peaks every `period`.
pub fn sample_peaks(kernel: &Kernel, period: Duration) -> Sampler<Peaks> {
    let kernel = kernel.clone();
    Sampler::start(period, Peaks::default(), move |peaks| {
        peaks.observe(&kernel)
    })
}

/// Emit the per-layer figures every traced repetition yields the same way:
/// counts from the kernel's snapshot, shares from its spans, the payload
/// plane's delta, and the cost of looking.
pub struct TracedRep<'a> {
    /// Snapshot taken when the traced repetition ended.
    pub snapshot: &'a KernelSnapshot,
    /// The kernel's spans of the traced repetition.
    pub spans: &'a [SpanRecord],
    /// Peaks sampled while it ran.
    pub peaks: Peaks,
    /// Payload-plane counters accumulated over it.
    pub payload: eden_core::PayloadSnapshot,
    /// What the same repetition costs with the kernel's spans and histograms
    /// on and nothing else watching: the wall time of its timed sections,
    /// or for an open loop the CPU time a request takes. Cheapest of three.
    pub traced_cost: f64,
    /// The same with tracing off.
    pub untraced_cost: f64,
}

impl TracedRep<'_> {
    /// Write the common per-layer metrics into `out`.
    pub fn put(&self, out: &mut Ledger) {
        let m = &self.snapshot.metrics;
        out.put("core.payload.copies", self.payload.payload_copies as f64);
        out.put(
            "core.payload.bytes_moved",
            self.payload.payload_bytes_moved as f64,
        );
        out.put("core.payload.cow_breaks", self.payload.cow_breaks as f64);
        out.put("core.payload.shares", self.payload.payload_shares as f64);
        out.put("kernel.routes.hits", m.route_cache_hits as f64);
        out.put("kernel.routes.misses", m.route_cache_misses as f64);
        out.put("kernel.invocations", m.invocations as f64);
        out.put("kernel.deferred_replies", m.deferred_replies as f64);

        let (mut queue, mut sched, mut service) = (0u64, 0u64, 0u64);
        for s in self.spans {
            queue += s.queue_ns;
            sched += s.sched_ns;
            service += s.service_ns;
        }
        let total = (queue + sched + service).max(1) as f64;
        out.put("kernel.mailbox.wait_share", queue as f64 / total);
        out.put("kernel.sched.wait_share", sched as f64 / total);
        out.put("kernel.service_share", service as f64 / total);
        out.put("kernel.mailbox.queued_max", self.peaks.queued_max as f64);
        out.put("kernel.mailbox.sheds", m.sheds_total() as f64);
        out.put(
            "kernel.sched.steals",
            self.snapshot.sched.sched_steals as f64,
        );
        out.put("kernel.sched.workers_peak", self.peaks.workers as f64);
        out.put(
            "kernel.sched.parked_ejects",
            self.peaks.parked_ejects as f64,
        );

        out.put(
            "kernel.obs.spans_recorded",
            self.snapshot.spans_recorded as f64,
        );
        out.put(
            "kernel.obs.spans_dropped",
            self.snapshot.spans_dropped as f64,
        );
        out.put(
            "trace.overhead_share",
            self.traced_cost / self.untraced_cost - 1.0,
        );
        out.check(
            "traced repetition kept every span",
            1,
            u64::from(self.snapshot.spans_dropped > 0),
        );
    }
}

/// A scratch directory under `benchmark/out/`, fresh per call, inside the
/// checkout (the benchmark writes nowhere else).
pub fn scratch_dir(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir().join(format!(
        "tmp-{}-{label}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `benchmark/out/`: trace files and scratch directories (git-ignored).
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
