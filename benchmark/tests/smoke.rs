//! Every workload end to end at smoke size, through the same code path the
//! command line takes.

use eden_benchmark::decl::{self, Workload, WORKLOADS};
use eden_benchmark::workloads::RunConfig;
use eden_benchmark::{inputs, run_workload, Outcome};

fn smoke(workload: Workload, seed: u64) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.3,
        traced: false,
        smoke: true,
        corrupt_reference: false,
    }
}

fn run(cfg: &RunConfig) -> Outcome {
    run_workload(cfg).unwrap_or_else(|e| panic!("{} could not run: {e}", cfg.workload))
}

#[test]
fn every_workload_passes_and_emits_exactly_its_declared_metrics() {
    for workload in WORKLOADS {
        let outcome = run(&smoke(workload, 7));
        assert_eq!(outcome.verdict(), Ok(()), "{workload}");
        assert_eq!(outcome.ledger.failed, 0, "{workload}");
        assert!(outcome.ledger.attempted > 0, "{workload}");
        for m in decl::METRICS {
            assert_eq!(
                outcome.ledger.get(m.name).is_some(),
                m.reported_by(workload, false),
                "{workload}: {}",
                m.name
            );
        }
        // The text and the driver's object name the same metrics once each.
        let lines = outcome.ledger.metric_lines();
        let json = outcome.ledger.json();
        for m in decl::METRICS.iter().filter(|m| m.gated()) {
            let prefix = format!("{} {} ", m.name, m.unit);
            assert_eq!(
                lines.iter().filter(|l| l.starts_with(&prefix)).count(),
                1,
                "{workload}: {}",
                m.name
            );
            assert_eq!(
                json.matches(&format!("\"{}\": {{\"value\"", m.name))
                    .count(),
                1
            );
            assert!(
                outcome.ledger.get(m.name).unwrap() != 0.0,
                "{workload}: {} is 0",
                m.name
            );
        }
        if workload.pinned() {
            assert_eq!(outcome.env.applied_cpus.len(), 1, "{workload} ran unpinned");
        } else {
            assert_eq!(outcome.env.applied_cpus, outcome.env.inherited_cpus);
        }
    }
}

#[test]
fn a_traced_run_reports_every_layer_drops_no_span_and_links_its_spans() {
    let cfg = RunConfig {
        traced: true,
        ..smoke(Workload::PipeHop, 7)
    };
    let outcome = run(&cfg);
    assert_eq!(outcome.verdict(), Ok(()));
    for m in decl::METRICS {
        assert_eq!(
            outcome.ledger.get(m.name).is_some(),
            m.reported_by(Workload::PipeHop, true),
            "{}",
            m.name
        );
    }
    assert_eq!(outcome.ledger.get("kernel.obs.spans_dropped"), Some(0.0));
    assert!(outcome.ledger.get("kernel.obs.spans_recorded").unwrap() > 0.0);
    let residual = outcome.ledger.get("stack.residual_share").unwrap();
    let explained = outcome.ledger.get("stack.explained_share").unwrap();
    assert!((residual + explained - 1.0).abs() < 1e-9);

    let spans = outcome.tracer.spans();
    assert!(spans
        .iter()
        .any(|s| s.name.starts_with("eden-kernel:Transfer")));
    assert!(spans
        .iter()
        .any(|s| s.name.starts_with("eden-transput:run")));
    let self_times = outcome.tracer.self_times_ns();
    for (s, self_ns) in spans.iter().zip(self_times) {
        assert!(s.end_ns >= s.start_ns, "{s:?}");
        assert!(self_ns <= s.end_ns - s.start_ns, "{s:?}");
        if let Some(parent) = s.parent {
            let p = spans
                .iter()
                .find(|p| p.id == parent)
                .unwrap_or_else(|| panic!("{s:?} has no parent"));
            assert_eq!(
                p.trace, s.trace,
                "{s:?} is in another trace than its parent"
            );
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{s:?} outside {p:?}"
            );
        }
    }
    let path = eden_benchmark::workloads::out_dir()
        .join(format!("test-trace-{}.jsonl", std::process::id()));
    outcome.tracer.write_jsonl(&path).unwrap();
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(written.lines().count(), spans.len());
    for key in [
        "\"id\"",
        "\"parent\"",
        "\"trace\"",
        "\"name\"",
        "\"start_ns\"",
        "\"end_ns\"",
        "\"self_ns\"",
    ] {
        assert!(
            written.lines().all(|l| l.contains(key)),
            "a span lacks {key}"
        );
    }
}

#[test]
fn seeds_change_the_inputs_and_not_the_invocation_count() {
    assert_ne!(
        inputs::ints(100, inputs::derive(1, 0)),
        inputs::ints(100, inputs::derive(2, 0))
    );
    assert_ne!(
        inputs::prose(100, inputs::derive(1, 0)),
        inputs::prose(100, inputs::derive(2, 0))
    );
    let a = run(&smoke(Workload::PipeHop, 1));
    let b = run(&smoke(Workload::PipeHop, 2));
    let per_record = a.ledger.get("invocations_per_record").unwrap();
    assert_eq!(Some(per_record), b.ledger.get("invocations_per_record"));
    // Read-only and write-only at batch 1: n + 1 invocations a record, plus
    // a constant per stream.
    let n_plus_1 = (eden_benchmark::workloads::hop::DEPTH + 1) as f64;
    assert!(
        per_record >= n_plus_1 && per_record < n_plus_1 + 0.05,
        "{per_record}"
    );
}

#[test]
fn a_corrupted_reference_fails_every_workload() {
    for workload in WORKLOADS {
        let cfg = RunConfig {
            corrupt_reference: true,
            ..smoke(workload, 7)
        };
        if workload == Workload::InvokeOpen {
            // Its reference is "every reply is Ok", which has nothing to
            // corrupt; the flag is a no-op there.
            continue;
        }
        let outcome = run(&cfg);
        assert!(outcome.ledger.failed > 0, "{workload} did not notice");
        assert!(outcome.verdict().is_err(), "{workload}");
        assert!(
            outcome.ledger.json().starts_with("{\"correct\": false"),
            "{workload}"
        );
    }
}

#[test]
fn the_committed_manifest_is_the_declaration_table() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(decl::check_manifest(&text), Vec::<String>::new());
}

#[test]
fn the_command_line_prints_the_drivers_object_last_and_fails_on_a_mismatch() {
    let run = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_eden-benchmark"))
            .args([
                "--workload",
                "pipe-hop",
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--trace",
                "0",
                "--smoke",
            ])
            .args(extra)
            .output()
            .expect("the benchmark binary runs")
    };
    let good = run(&[]);
    assert!(
        good.status.success(),
        "{}",
        String::from_utf8_lossy(&good.stderr)
    );
    let stdout = String::from_utf8_lossy(&good.stdout);
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for m in decl::METRICS.iter().filter(|m| m.gated()) {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{last}"
        );
    }
    for key in [
        "env commit ",
        "env nproc ",
        "env cpus_inherited ",
        "env cpus_applied ",
        "env rustc ",
        "env kernel_release ",
        "env seed 3",
        "note sizes ",
    ] {
        assert!(
            stdout.lines().any(|l| l.starts_with(key)),
            "no `{key}` line"
        );
    }

    let bad = run(&["--corrupt-reference"]);
    assert!(!bad.status.success());
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": false"));
    assert!(stdout.lines().any(|l| l.starts_with("FAILED ")));
}
