//! `pipe-bulk`: the whole product path. A shell command reads a seeded
//! prose file from a `UnixFsEject` over `MemFs`, greps, upcases and numbers
//! its lines at batch 64, and writes the result back, once per discipline.
//! At a twentieth of an invocation per record the invocation path does
//! almost nothing here: filters, `eden-fs`, the shell and `Value` sharing
//! do the work.

use std::time::Instant;

use eden_core::op::ops;
use eden_core::{HostFsHandle, MemFs, Uid, Value};
use eden_fs::{new_stream_arg, use_stream_arg, UnixFsEject};
use eden_kernel::{Kernel, ObsConfig};
use eden_shell::ShellEnv;
use eden_transput::protocol::{Batch, TransferRequest};
use eden_transput::source::{SourceEject, VecSource};
use eden_transput::transform::Emitter;

use super::{
    cheapest, fresh_kernel, put_discipline_rates, put_on_time_without_deadline,
    put_process_metrics, put_rep_metrics, repeat_for, sample_peaks, traced_obs, Rep, RunConfig,
    Sampler, Timed, TracedRep, DEADLINE,
};
use crate::host::process_cpu_seconds;
use crate::inputs;
use crate::probes;
use crate::report::Ledger;
use crate::trace::Tracer;

/// `@discipline` values, and the key each goes by in metric names.
const ARMS: [(&str, &str); 3] = [
    ("read_only", "read-only"),
    ("write_only", "write-only"),
    ("conventional", "conventional"),
];

const BATCH: usize = 64;
const FILTERS: [(&str, &[&str]); 3] = [
    ("grep", &["-v", "lazy"]),
    ("upcase", &[]),
    ("line-number", &[]),
];

fn command(discipline: &str) -> String {
    format!(
        "@batch={BATCH} @discipline={discipline} unix in.txt | grep -v lazy | upcase | line-number > unix out.txt"
    )
}

/// What the command must leave in `out.txt`, by plain `str` code.
fn reference(lines: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut number = 0u64;
    for line in lines.iter().filter(|l| !l.contains("lazy")) {
        number += 1;
        out.extend_from_slice(format!("{number:>6}  {}\n", line.to_uppercase()).as_bytes());
    }
    out
}

/// One discipline's share of a repetition.
#[derive(Debug, Clone, Copy, Default)]
struct ArmRun {
    wall_s: f64,
    cpu_s: f64,
    /// `PipelineRun.wall`: the pipeline's data phase inside the command.
    pipeline_wall_s: f64,
    invocations: u64,
    entities: usize,
    trace: u64,
}

struct RepRun {
    rep: Rep,
    arms: [ArmRun; 3],
    lines_in: usize,
    lines_out: usize,
    kernel: Kernel,
    kernel_epoch: Instant,
    run_spans: [u64; 3],
    /// Peaks sampled beside a traced repetition (zeros otherwise).
    peaks: super::Peaks,
}

fn file_system(lines: &[String]) -> HostFsHandle {
    MemFs::with_files([("in.txt", eden_fs::hostfs::lines_to_bytes(lines))])
}

fn repetition(
    cfg: &RunConfig,
    lines: usize,
    obs: ObsConfig,
    rep_index: usize,
    out: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<RepRun, String> {
    let setup_from = Instant::now();
    let (text, _) = tracer.span("harness:generate inputs", |_| {
        inputs::prose(lines, inputs::derive(cfg.seed, rep_index as u64))
    });
    let ((kernel, kernel_epoch), _) = tracer.span("eden-kernel:build", |_| fresh_kernel(obs));
    let (shell, _) = tracer.span("eden-fs:populate", |_| {
        let fs = file_system(&text);
        let unixfs = kernel
            .spawn(Box::new(UnixFsEject::new(fs.clone())))
            .map_err(|e| format!("UnixFs Eject does not spawn: {e}"))?;
        Ok::<_, String>((
            ShellEnv::new(&kernel)
                .with_unixfs(unixfs)
                .with_deadline(DEADLINE),
            fs,
        ))
    });
    let (shell, fs) = shell?;
    let setup_s = setup_from.elapsed().as_secs_f64();
    let sampler = tracer
        .enabled()
        .then(|| sample_peaks(&kernel, std::time::Duration::from_millis(1)));

    let mut want = reference(&text);
    if cfg.corrupt_reference {
        want[0] ^= 1;
    }
    let lines_out = want.iter().filter(|&&b| b == b'\n').count();

    let mut arms = [ArmRun::default(); 3];
    let mut run_spans = [0u64; 3];
    for (arm, (key, discipline)) in ARMS.iter().enumerate() {
        let line = command(discipline);
        let cpu_from = process_cpu_seconds();
        let from = Instant::now();
        let (ran, span) = tracer.span(&format!("eden-shell:run {key}"), |_| shell.run(&line));
        let wall_s = from.elapsed().as_secs_f64();
        let cpu_s = process_cpu_seconds() - cpu_from;
        let ran = ran.map_err(|e| format!("`{line}` failed: {e}"))?;
        let got = fs
            .read("out.txt")
            .map_err(|e| format!("`{line}` left no out.txt: {e}"))?;
        out.check(
            &format!("{key}: out.txt equals the reference"),
            lines as u64,
            if got == want {
                0
            } else {
                lines_out.abs_diff(ran.output.len()).max(1) as u64
            },
        );
        fs.remove("out.txt")
            .map_err(|e| format!("cannot clear out.txt: {e}"))?;
        arms[arm] = ArmRun {
            wall_s,
            cpu_s,
            pipeline_wall_s: ran.run.wall.as_secs_f64(),
            invocations: ran.run.metrics.invocations,
            entities: ran.run.entities,
            trace: ran.run.trace,
        };
        run_spans[arm] = span;
    }
    let rep = Rep {
        setup_s,
        // Every input line is a record: the grep sees them all.
        arms: arms.map(|a| Timed {
            records: lines as u64,
            wall_s: a.wall_s,
            cpu_s: a.cpu_s,
        }),
    };
    let peaks = sampler.map(Sampler::finish).unwrap_or_default();
    Ok(RepRun {
        rep,
        arms,
        lines_in: lines,
        lines_out,
        kernel,
        kernel_epoch,
        run_spans,
        peaks,
    })
}

/// `pipe-bulk`.
pub fn run(cfg: &RunConfig, out: &mut Ledger, tracer: &mut Tracer) -> Result<(), String> {
    let (lines, traced_lines, min_reps) = if cfg.smoke {
        (2_000, 1_000, 2)
    } else {
        (50_000, 20_000, 5)
    };
    out.note(format!(
        "sizes lines {lines} batch {BATCH} disciplines 3 command `{}`",
        command("<discipline>")
    ));
    let repeated = repeat_for(cfg.measure_budget(), min_reps, |i| {
        let run = repetition(cfg, lines, ObsConfig::off(), i, out, &mut Tracer::off())?;
        run.kernel.shutdown();
        // Read-only and write-only arms only, as on pipe-hop: conventional's
        // count depends on how its pumps interleave.
        Ok((run.rep, run.arms[0].invocations + run.arms[1].invocations))
    })?;
    let reps: Vec<Rep> = repeated.reps.iter().map(|r| r.0).collect();
    put_rep_metrics(out, &reps);
    let invocations: u64 = repeated.reps.iter().map(|r| r.1).sum();
    out.put(
        "invocations_per_record",
        invocations as f64 / (2 * lines * reps.len()) as f64,
    );

    if cfg.traced {
        traced_phase(cfg, traced_lines, out, tracer)?;
    }
    put_on_time_without_deadline(out);
    put_process_metrics(out, repeated.first_rep_peak_rss);
    Ok(())
}

fn traced_phase(
    cfg: &RunConfig,
    lines: usize,
    out: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let nested_hop_ns = probes::invocation(cfg.smoke, out)?;
    let text = inputs::prose(lines, inputs::derive(cfg.seed, 0));
    let filter_ns = filters_probe(&text, out)?;
    let (pull_ns, write_ns) = fs_probe(&text, out)?;
    let parse_us = parse_probe(out)?;

    // The same small repetition with the kernel's tracing off and on: the
    // difference is what looking costs. Generous: at batch 64 a command
    // needs a few hundred invocations.
    let obs = traced_obs(3 * (lines / BATCH + 64) * 16);
    let mut small = |obs: ObsConfig| {
        cheapest(
            || {
                let rep = repetition(cfg, lines, obs, 0, out, &mut Tracer::off())?;
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
        repetition(cfg, lines, obs, 0, out, t)
    });
    let traced = traced?;
    let payload = eden_core::payload::snapshot().since(&payload_before);
    let snapshot = traced.kernel.metrics_snapshot();
    let spans = traced.kernel.spans();
    let hosts: Vec<_> = traced
        .run_spans
        .iter()
        .zip(&traced.arms)
        .map(|(span, arm)| (*span, vec![arm.trace]))
        .collect();
    tracer.add_kernel_spans_by_trace(&hosts, traced.kernel_epoch, &spans);
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

    put_discipline_rates(
        out,
        untraced
            .arms
            .map(|a| untraced.lines_in as f64 / a.pipeline_wall_s),
    );
    out.put(
        "transput.entities",
        untraced.arms.iter().map(|a| a.entities).sum::<usize>() as f64,
    );
    put_exec_overhead(&untraced, out);

    let invocations: u64 = untraced.arms.iter().map(|a| a.invocations).sum();
    let records_in = (3 * untraced.lines_in) as f64;
    let records_out = (3 * untraced.lines_out) as f64;
    let explained_ns = invocations as f64 * nested_hop_ns
        + records_in * (filter_ns + pull_ns)
        + records_out * write_ns
        + 3.0 * parse_us * 1e3;
    let explained = explained_ns / (untraced.rep.wall_s() * 1e9);
    out.put("stack.explained_share", explained);
    out.put("stack.residual_share", 1.0 - explained);
    out.note(format!(
        "stack: {invocations} invocations x {:.0} ns/hop + {records_in:.0} records x ({filter_ns:.0} filter + {pull_ns:.0} pull) ns + {records_out:.0} x {write_ns:.0} ns write against {:.3} s wall",
        nested_hop_ns, untraced.rep.wall_s()
    ));
    super::probe_suite(cfg, out)
}

/// `eden-shell`: whatever of a command is not its pipeline's data phase —
/// parsing, opening the source stream, building and tearing down the
/// pipeline, and writing the sink file.
fn put_exec_overhead(rep: &RepRun, out: &mut Ledger) {
    let overhead_s: f64 = rep.arms.iter().map(|a| a.wall_s - a.pipeline_wall_s).sum();
    out.put_probe("shell.exec_overhead_ms", overhead_s * 1e3 / 3.0);
}

/// Stand in for `pipe-bulk` in another workload's traced run: the text
/// probes and one small repetition for the shell's overhead.
pub fn probe(cfg: &RunConfig, out: &mut Ledger) -> Result<(), String> {
    let lines = 2_000;
    let text = inputs::prose(lines, inputs::derive(cfg.seed, 0));
    filters_probe(&text, out)?;
    fs_probe(&text, out)?;
    parse_probe(out)?;
    let rep = repetition(cfg, lines, ObsConfig::off(), 0, out, &mut Tracer::off())?;
    rep.kernel.shutdown();
    put_exec_overhead(&rep, out);
    Ok(())
}

/// `eden-filters`: the same records through the same three transforms with
/// no kernel around them. Returns nanoseconds per input record.
fn filters_probe(text: &[String], out: &mut Ledger) -> Result<f64, String> {
    let mut kept = 0;
    let ns = probes::fastest(|| {
        let mut chain = FILTERS
            .iter()
            .map(|(name, args)| eden_filters::make_filter(name, args))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("filter chain does not build: {e}"))?;
        let mut stream: Vec<Value> = text.iter().map(|l| Value::str(l.as_str())).collect();
        let mut emitter = Emitter::new();
        let from = Instant::now();
        for filter in &mut chain {
            for item in stream {
                filter.push(item, &mut emitter);
            }
            filter.flush(&mut emitter);
            stream = emitter.take_primary();
        }
        let ns = from.elapsed().as_nanos() as f64 / text.len() as f64;
        kept = stream.len();
        Ok(ns)
    })?;
    let want = text.iter().filter(|l| !l.contains("lazy")).count();
    out.check(
        "filters probe keeps the lines without `lazy`",
        text.len() as u64,
        want.abs_diff(kept) as u64,
    );
    out.put_probe("filters.push_ns_per_rec", ns);
    out.put_probe("filters.records_in", text.len() as f64);
    out.put_probe("filters.records_out", kept as f64);
    Ok(ns)
}

/// `eden-fs`: drain the `NewStream` reader Eject alone, then have
/// `UseStream` write the same lines back alone. Returns nanoseconds per
/// record of each.
fn fs_probe(text: &[String], out: &mut Ledger) -> Result<(f64, f64), String> {
    let kernel = Kernel::builder().build();
    let fs = file_system(text);
    let invoke = |target: Uid, op: &str, arg: Value| {
        kernel
            .invoke(target, op, arg)
            .wait()
            .map_err(|e| format!("fs probe: {op} failed: {e}"))
    };
    let unixfs = kernel
        .spawn(Box::new(UnixFsEject::new(fs.clone())))
        .map_err(|e| format!("UnixFs Eject does not spawn: {e}"))?;

    let mut pulled = 0usize;
    let pull_ns = probes::fastest(|| {
        let reader = invoke(unixfs, ops::NEW_STREAM, new_stream_arg("in.txt"))?
            .as_uid()
            .map_err(|e| format!("NewStream returned no stream: {e}"))?;
        pulled = 0;
        let from = Instant::now();
        loop {
            let reply = invoke(
                reader,
                ops::TRANSFER,
                TransferRequest::primary(BATCH).to_value(),
            )?;
            let batch = Batch::from_value(reply).map_err(|e| format!("bad batch: {e}"))?;
            pulled += batch.items.len();
            if batch.end {
                break;
            }
        }
        Ok(from.elapsed().as_nanos() as f64 / text.len() as f64)
    })?;

    let write_ns = probes::fastest(|| {
        let records: Vec<Value> = text.iter().map(|l| Value::str(l.as_str())).collect();
        let source = kernel
            .spawn(Box::new(SourceEject::new(Box::new(VecSource::new(
                records,
            )))))
            .map_err(|e| format!("source Eject does not spawn: {e}"))?;
        let from = Instant::now();
        invoke(unixfs, ops::USE_STREAM, use_stream_arg("copy.txt", source))?;
        Ok(from.elapsed().as_nanos() as f64 / text.len() as f64)
    })?;
    let copied = fs
        .read("copy.txt")
        .map_err(|e| format!("UseStream wrote nothing: {e}"))?;
    kernel.shutdown();

    out.check(
        "fs probe pulled every line",
        text.len() as u64,
        text.len().abs_diff(pulled) as u64,
    );
    out.check(
        "fs probe wrote the file back unchanged",
        1,
        u64::from(copied != eden_fs::hostfs::lines_to_bytes(text)),
    );
    out.put_probe("fs.source_pull_ns_per_rec", pull_ns);
    out.put_probe("fs.sink_write_ns_per_rec", write_ns);
    Ok((pull_ns, write_ns))
}

/// `eden-shell`: parsing the command line. Returns microseconds per parse.
fn parse_probe(out: &mut Ledger) -> Result<f64, String> {
    const ROUNDS: u32 = 400;
    let line = command(ARMS[0].1);
    let us = probes::fastest(|| {
        let from = Instant::now();
        for _ in 0..ROUNDS {
            std::hint::black_box(eden_shell::parse(std::hint::black_box(&line)))
                .map_err(|e| format!("`{line}` does not parse: {e}"))?;
        }
        Ok(from.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS))
    })?;
    out.put_probe("shell.parse_us", us);
    Ok(us)
}
