//! The one declaration table: every workload and every metric the benchmark
//! knows, with unit, direction, regression bound, owning layer and the
//! workloads it applies to. The printed output, the last-line JSON, the
//! `--repeat` gate and the `--check-manifest` comparison against
//! `BENCHMARK.json` are all produced from this table and nothing else.

use std::fmt;

/// A workload, by its `--workload` name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Depth-4 identity pipelines, batch 1, pinned: the invocation path.
    PipeHop,
    /// A shell text pipeline over a 50k-line file, batch 64, pinned.
    PipeBulk,
    /// Eight `pipe-hop` pipelines at once, unpinned.
    PipeFleet,
    /// Open-loop invocations against 100k parked Ejects, unpinned.
    InvokeOpen,
    /// Recoverable pipelines on a durable store under faults, pinned.
    RecoverDurable,
}

use Workload::{InvokeOpen, PipeBulk, PipeFleet, PipeHop, RecoverDurable};

/// Every workload, in the order `--all` runs them.
pub const WORKLOADS: [Workload; 5] = [PipeHop, PipeBulk, PipeFleet, InvokeOpen, RecoverDurable];
const PIPELINES: &[Workload] = &[PipeHop, PipeBulk, PipeFleet, RecoverDurable];
const PLAIN_PIPELINES: &[Workload] = &[PipeHop, PipeBulk, PipeFleet];
const ALL: &[Workload] = &WORKLOADS;

impl Workload {
    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            PipeHop => "pipe-hop",
            PipeBulk => "pipe-bulk",
            PipeFleet => "pipe-fleet",
            InvokeOpen => "invoke-open",
            RecoverDurable => "recover-durable",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on one CPU (the first of the inherited
    /// mask) or on the inherited mask.
    pub fn pinned(self) -> bool {
        matches!(self, PipeHop | PipeBulk | RecoverDurable)
    }

    /// One line on why the workload exists (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            PipeHop => "pinned depth-4 identity pipelines at batch 1: the invocation path is all of the work, so the layer probes must add up to the wall time",
            PipeBulk => "pinned shell text pipeline over a 50k-line file at batch 64: filters, fs and payload do the work and the invocation path almost none",
            PipeFleet => "eight pipe-hop pipelines at once on both CPUs: deques, injector, stealing and wake tokens are live; the multicore number that repeats",
            InvokeOpen => "open-loop invocations at 10k/s then 40k/s against 100k parked Ejects: park-to-wake and queueing latency, spawn cost and residency",
            RecoverDurable => "pinned recoverable pipelines on a durable fsynced store under seeded crash and drop faults, then cold reopens: wire, stable, fault",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
}

impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What a metric is, which decides where it is printed and how it is gated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// End-to-end, defined on every workload and never zero: listed under
    /// `end_to_end` in `BENCHMARK.json`, so the driver gates it. `bound` is
    /// the share of the parent's median by which it may worsen.
    Gated {
        /// Regression bound, relative.
        bound: f64,
    },
    /// End-to-end, but defined on some workloads only (or zero when all is
    /// well). `BENCHMARK.json` has one flat metric list that every workload
    /// must emit, so these are listed there under `per_layer`; `--repeat`
    /// still gates them with `bound`.
    EndToEnd {
        /// Regression bound, relative (0 = must not move).
        bound: f64,
    },
    /// A single layer's figure, from probes and the traced repetition.
    /// Printed, never gated.
    Layer,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The printed name.
    pub name: &'static str,
    /// The printed unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end or per-layer, and its bound.
    pub kind: Kind,
    /// The module the figure belongs to (`harness` for the run as a whole).
    pub layer: &'static str,
    /// The workloads that measure it themselves, at full size.
    pub workloads: &'static [Workload],
    /// Whether a traced run of any *other* workload still reports it, from
    /// the probe suite (a small stand-in for the owning workload, run under
    /// the traced workload's CPU placement). Where neither holds the metric
    /// is not applicable: absent from the text and 0 in the last-line JSON.
    pub suite: bool,
}

impl Metric {
    /// Whether `workload` measures this metric itself.
    pub fn applies_to(&self, workload: Workload) -> bool {
        self.workloads.contains(&workload)
    }

    /// Whether a run of `workload` reports this metric.
    pub fn reported_by(&self, workload: Workload, traced: bool) -> bool {
        match self.kind {
            Kind::Gated { .. } => true,
            Kind::EndToEnd { .. } => self.applies_to(workload) || (traced && self.suite),
            Kind::Layer => traced && (self.applies_to(workload) || self.suite),
        }
    }

    /// Whether the driver reads this metric from an untraced run
    /// (`--trace 0`) rather than a traced one.
    pub fn gated(&self) -> bool {
        matches!(self.kind, Kind::Gated { .. })
    }

    /// The regression bound `--repeat` applies, if the metric has one.
    pub fn bound(&self) -> Option<f64> {
        match self.kind {
            Kind::Gated { bound } | Kind::EndToEnd { bound } => Some(bound),
            Kind::Layer => None,
        }
    }
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Gated { bound },
        layer: "harness",
        workloads: ALL,
        suite: false,
    }
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    workloads: &'static [Workload],
) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::EndToEnd { bound },
        layer: "harness",
        workloads,
        suite: true,
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [Workload],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Layer,
        layer,
        workloads,
        suite: true,
    }
}

/// A per-layer figure only its own workloads can produce.
const fn own_only(m: Metric) -> Metric {
    Metric { suite: false, ..m }
}

use Better::{Higher, Lower};

/// Every metric the benchmark prints. README.md, "Metrics", says what each
/// one means and which end-to-end figure it should move.
#[rustfmt::skip] // one metric a line: this is the table people read
pub const METRICS: &[Metric] = &[
    // ---- end to end, every workload (BENCHMARK.json `end_to_end`) ----
    gated("records_per_s", "rec/s", Higher, 0.25),
    gated("cpu_us_per_record", "us", Lower, 0.25),
    gated("invocations_per_record", "count", Lower, 0.1),
    gated("on_time_share", "ratio", Higher, 0.25),
    gated("setup_s", "s", Lower, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.25),
    // ---- end to end, some workloads only ----
    end_to_end("lat_p50_us.r10k", "us", 0.25, &[InvokeOpen]),
    end_to_end("lat_p50_us.r40k", "us", 0.25, &[InvokeOpen]),
    end_to_end("rss_bytes_per_eject", "B", 0.05, &[InvokeOpen]),
    end_to_end("restart_replay_s", "s", 0.25, &[RecoverDurable]),
    end_to_end("failed_share", "ratio", 0.0, ALL),
    // ---- eden-core::wire ----
    layer("eden-core::wire", "core.wire.encode_ns_per_rec", "ns", Lower, &[RecoverDurable]),
    layer("eden-core::wire", "core.wire.decode_shared_ns_per_rec", "ns", Lower, &[RecoverDurable]),
    layer("eden-core::wire", "core.wire.bytes_per_rec", "B", Lower, &[RecoverDurable]),
    // ---- eden-core::payload ----
    layer("eden-core::payload", "core.payload.copies", "count", Lower, ALL),
    layer("eden-core::payload", "core.payload.bytes_moved", "B", Lower, ALL),
    layer("eden-core::payload", "core.payload.cow_breaks", "count", Lower, ALL),
    layer("eden-core::payload", "core.payload.shares", "count", Higher, ALL),
    // ---- eden-kernel::invocation + routes ----
    layer("eden-kernel::invocation", "kernel.invoke.rtt_p50_ns", "ns", Lower, ALL),
    layer("eden-kernel::invocation", "kernel.invoke.rtt_cached_p50_ns", "ns", Lower, ALL),
    layer("eden-kernel::invocation", "kernel.invoke.nested_rtt_p50_ns", "ns", Lower, ALL),
    layer("eden-kernel::invocation", "kernel.reply.settle_ns", "ns", Lower, ALL),
    layer("eden-kernel::routes", "kernel.routes.hits", "count", Higher, ALL),
    layer("eden-kernel::routes", "kernel.routes.misses", "count", Lower, ALL),
    layer("eden-kernel::invocation", "kernel.invocations", "count", Lower, ALL),
    layer("eden-kernel::invocation", "kernel.deferred_replies", "count", Lower, ALL),
    // ---- eden-kernel::mailbox ----
    layer("eden-kernel::mailbox", "kernel.mailbox.wait_share", "ratio", Lower, ALL),
    layer("eden-kernel::mailbox", "kernel.mailbox.queued_max", "count", Lower, ALL),
    layer("eden-kernel::mailbox", "kernel.mailbox.sheds", "count", Lower, ALL),
    // ---- eden-kernel::sched / deque ----
    layer("eden-kernel::sched", "kernel.sched.wait_share", "ratio", Lower, ALL),
    layer("eden-kernel::sched", "kernel.service_share", "ratio", Higher, ALL),
    layer("eden-kernel::sched", "kernel.sched.steals", "count", Lower, ALL),
    layer("eden-kernel::sched", "kernel.sched.workers_peak", "count", Lower, ALL),
    layer("eden-kernel::sched", "kernel.sched.parked_ejects", "count", Higher, ALL),
    own_only(layer("eden-kernel::sched", "sched.single_unpinned.records_per_s_min", "rec/s", Higher, &[PipeFleet])),
    own_only(layer("eden-kernel::sched", "sched.single_unpinned.records_per_s_p50", "rec/s", Higher, &[PipeFleet])),
    own_only(layer("eden-kernel::sched", "sched.single_unpinned.records_per_s_max", "rec/s", Higher, &[PipeFleet])),
    // ---- eden-kernel::obs ----
    layer("eden-kernel::obs", "kernel.obs.spans_recorded", "count", Higher, ALL),
    layer("eden-kernel::obs", "kernel.obs.spans_dropped", "count", Lower, ALL),
    layer("eden-kernel::obs", "trace.overhead_share", "ratio", Lower, ALL),
    // ---- eden-kernel::stable ----
    layer("eden-kernel::stable", "kernel.stable.store_ns_p50", "ns", Lower, &[RecoverDurable]),
    layer("eden-kernel::stable", "kernel.stable.durable_store_ns_p50", "ns", Lower, &[RecoverDurable]),
    layer("eden-kernel::stable", "kernel.stable.load_ns_p50", "ns", Lower, &[RecoverDurable]),
    layer("eden-kernel::stable", "kernel.stable.fsyncs", "count", Lower, &[RecoverDurable]),
    layer("eden-kernel::stable", "kernel.stable.log_bytes", "B", Lower, &[RecoverDurable]),
    layer("eden-kernel::stable", "kernel.stable.checkpoints", "count", Lower, &[RecoverDurable]),
    layer("eden-kernel::stable", "kernel.stable.replay_ns_per_record", "ns", Lower, &[RecoverDurable]),
    // ---- eden-kernel::fault ----
    layer("eden-kernel::fault", "kernel.fault.injected", "count", Lower, &[RecoverDurable]),
    layer("eden-kernel::fault", "kernel.fault.crashes", "count", Lower, &[RecoverDurable]),
    layer("eden-kernel::fault", "kernel.fault.retries", "count", Lower, &[RecoverDurable]),
    layer("eden-kernel::fault", "kernel.fault.reactivations", "count", Lower, &[RecoverDurable]),
    layer("eden-kernel::fault", "kernel.fault.recovery_p50_ms", "ms", Lower, &[RecoverDurable]),
    // ---- eden-kernel (spawn) ----
    layer("eden-kernel", "kernel.spawn_ns_per_eject", "ns", Lower, &[InvokeOpen]),
    // ---- eden-transput ----
    layer("eden-transput", "transput.read_only.records_per_s", "rec/s", Higher, PIPELINES),
    layer("eden-transput", "transput.write_only.records_per_s", "rec/s", Higher, PIPELINES),
    layer("eden-transput", "transput.conventional.records_per_s", "rec/s", Higher, PIPELINES),
    layer("eden-transput", "transput.build_ms_per_pipeline", "ms", Lower, &[PipeHop, PipeFleet]),
    layer("eden-transput", "transput.teardown_ms", "ms", Lower, &[PipeHop, PipeFleet]),
    layer("eden-transput", "transput.entities", "count", Lower, PLAIN_PIPELINES),
    layer("eden-transput", "transput.recovery.records_per_s", "rec/s", Higher, &[RecoverDurable]),
    // ---- eden-filters ----
    layer("eden-filters", "filters.push_ns_per_rec", "ns", Lower, &[PipeBulk]),
    layer("eden-filters", "filters.records_in", "count", Higher, &[PipeBulk]),
    layer("eden-filters", "filters.records_out", "count", Higher, &[PipeBulk]),
    // ---- eden-fs ----
    layer("eden-fs", "fs.source_pull_ns_per_rec", "ns", Lower, &[PipeBulk]),
    layer("eden-fs", "fs.sink_write_ns_per_rec", "ns", Lower, &[PipeBulk]),
    // ---- eden-shell ----
    layer("eden-shell", "shell.parse_us", "us", Lower, &[PipeBulk]),
    layer("eden-shell", "shell.exec_overhead_ms", "ms", Lower, &[PipeBulk]),
    // ---- reconciliation ----
    own_only(layer("harness", "stack.explained_share", "ratio", Higher, &[PipeHop, PipeBulk])),
    own_only(layer("harness", "stack.residual_share", "ratio", Lower, &[PipeHop, PipeBulk])),
    // ---- open-loop generator ----
    layer("harness", "gen.late_max_us", "us", Lower, &[InvokeOpen]),
    layer("harness", "gen.late_p99_us", "us", Lower, &[InvokeOpen]),
    layer("eden-kernel::invocation", "kernel.invoke.lat_p90_us", "us", Lower, &[InvokeOpen]),
    layer("eden-kernel::invocation", "kernel.invoke.lat_p99_us", "us", Lower, &[InvokeOpen]),
];

/// Look a metric up by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The command `BENCHMARK.json` declares; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// How long one run measures (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u32 = 20;

/// The `BENCHMARK.json` this table stands for. The committed file is this
/// text (`--print-manifest` writes it, `--check-manifest` compares it).
pub fn render_manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let metrics = |gated: bool| -> Vec<String> {
        METRICS
            .iter()
            .filter(|m| m.gated() == gated)
            .map(|m| {
                let bound = match m.kind {
                    Kind::Gated { bound } => format!(", \"bound\": {bound}"),
                    _ => String::new(),
                };
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect()
    };
    let command: Vec<String> = COMMAND.iter().map(|s| format!("\"{s}\"")).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        list(workloads),
        list(metrics(true)),
        list(metrics(false)),
    )
}

/// Compare the committed `BENCHMARK.json` (its text) with the table.
/// Returns the lines that differ, empty when they agree.
pub fn check_manifest(manifest: &str) -> Vec<String> {
    let want = render_manifest();
    let mut diffs = Vec::new();
    let (mut have_lines, mut want_lines) = (manifest.lines(), want.lines());
    loop {
        match (have_lines.next(), want_lines.next()) {
            (None, None) => return diffs,
            (have, want) if have == want => {}
            (have, want) => diffs.push(format!(
                "BENCHMARK.json has `{}` where the table says `{}`",
                have.unwrap_or("<end of file>").trim(),
                want.unwrap_or("<end of file>").trim()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` is spelled as the manifest allows: starts with a letter
    /// or digit, then at most 63 more of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for m in METRICS {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "metric {} declared twice", m.name);
            assert!(!m.workloads.is_empty(), "{} applies to no workload", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name()));
            assert!(
                seen.insert(w.name()),
                "{} names a workload and a metric",
                w.name()
            );
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
    }

    #[test]
    fn gated_metrics_cover_every_workload_with_a_bound() {
        let gated: Vec<_> = METRICS.iter().filter(|m| m.gated()).collect();
        assert!(gated.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in gated {
            assert_eq!(m.workloads, ALL, "{} is gated but not universal", m.name);
            let bound = m.bound().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(METRICS.iter().filter(|m| !m.gated()).count() <= 128);
    }

    #[test]
    fn manifest_check_names_the_line_that_differs() {
        let text = render_manifest();
        assert_eq!(check_manifest(&text), Vec::<String>::new());
        let broken = text.replace(
            "\"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25",
            "\"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.2",
        );
        assert_ne!(broken, text);
        let diffs = check_manifest(&broken);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("setup_s"), "{diffs:?}");
    }
}
