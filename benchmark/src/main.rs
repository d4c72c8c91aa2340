//! Command line of the benchmark. See `README.md`.

use std::process::ExitCode;

use eden_benchmark::decl::{self, Workload, WORKLOADS};
use eden_benchmark::workloads::RunConfig;
use eden_benchmark::{repeat, report, run_workload, trace_path};

const USAGE: &str = "usage: eden-benchmark (--workload NAME | --all) [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--smoke] [--repeat N [--sets K]]\n       eden-benchmark --check-manifest | --print-manifest | --list";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    corrupt_reference: bool,
    repeat: Option<usize>,
    sets: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: f64::from(decl::RUN_SECONDS),
        traced: false,
        smoke: false,
        corrupt_reference: false,
        repeat: None,
        sets: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let workload = Workload::parse(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}`; one of {}", names.join(", "))
                })?;
                parsed.workloads.push(workload);
            }
            "--all" => parsed.workloads = WORKLOADS.to_vec(),
            "--seed" => {
                let v = value("a number")?;
                parsed.seed = v.parse().map_err(|_| format!("--seed: bad number `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: bad duration `{v}`"))?;
            }
            "--trace" => {
                parsed.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                };
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--corrupt-reference" => parsed.corrupt_reference = true,
            "--repeat" => {
                let v = value("a count")?;
                parsed.repeat =
                    Some(v.parse().ok().filter(|n| *n >= 2).ok_or_else(|| {
                        format!("--repeat: need a count of at least 2, got `{v}`")
                    })?);
            }
            "--sets" => {
                let v = value("a count")?;
                parsed.sets = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--sets: need a count of at least 1, got `{v}`"))?;
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err(format!("no workload named\n{USAGE}"));
    }
    Ok(parsed)
}

/// Run one workload in this process and print it. True when it passed.
fn run_and_print(cfg: &RunConfig) -> bool {
    let outcome = match run_workload(cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {}: {e}", cfg.workload);
            return false;
        }
    };
    if cfg.traced {
        let path = trace_path(cfg.workload);
        if let Err(e) = outcome.tracer.write_jsonl(&path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return false;
        }
        println!(
            "note trace {} spans in {}",
            outcome.tracer.spans().len(),
            path.display()
        );
    }
    report::print_run(&outcome.env, cfg.seed, &outcome.ledger);
    match outcome.verdict() {
        Ok(()) => true,
        Err(problems) => {
            for p in problems {
                eprintln!("error: {}: {p}", cfg.workload);
            }
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--print-manifest") => {
            print!("{}", decl::render_manifest());
            return ExitCode::SUCCESS;
        }
        Some("--check-manifest") => {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
            let diffs = match std::fs::read_to_string(&path) {
                Ok(text) => decl::check_manifest(&text),
                Err(e) => vec![format!("cannot read {}: {e}", path.display())],
            };
            for d in &diffs {
                eprintln!("error: {d}");
            }
            return if diffs.is_empty() {
                println!("BENCHMARK.json agrees with the declaration table");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Some("--list") => {
            for m in decl::METRICS {
                let names: Vec<_> = m.workloads.iter().map(|w| w.name()).collect();
                println!(
                    "{} {} {} {:?} {} [{}]",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.kind,
                    m.layer,
                    names.join(" ")
                );
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat {
        let ok = repeat::repeat(
            &args.workloads,
            runs,
            args.sets,
            args.seed,
            args.seconds,
            args.smoke,
        );
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let ok = match args.workloads[..] {
        [workload] => run_and_print(&RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            smoke: args.smoke,
            corrupt_reference: args.corrupt_reference,
        }),
        // CPU placement sticks to a process, so each of several workloads
        // gets a process of its own.
        _ => args.workloads.iter().fold(true, |ok, &workload| {
            let child =
                repeat::child_args(workload, args.seed, args.seconds, args.traced, args.smoke);
            ok & run_child(&child)
        }),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run this executable again with `args`, its output passed through.
fn run_child(args: &[String]) -> bool {
    let run =
        std::env::current_exe().and_then(|exe| std::process::Command::new(exe).args(args).status());
    match run {
        Ok(status) => status.success(),
        Err(e) => {
            eprintln!("error: cannot start a child run: {e}");
            false
        }
    }
}
