//! The observability plane end to end: causal spans recorded per delivered
//! invocation reconstruct each pipeline run as a single tree whose edge
//! count *is* the paper's §4 arithmetic — n+1 invocations per batch round
//! in the asymmetric disciplines, 2n+2 per datum (plus Start) in the
//! conventional one — and the export surfaces (Prometheus text, JSON,
//! Chrome trace_event) render well-formed documents from live kernels.
//!
//! The Prometheus checks double as the format lint for CI: the renderer's
//! output is parsed line by line against the text exposition format rather
//! than eyeballed.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use eden::core::Value;
use eden::kernel::{
    chrome_trace_json, json_text, prometheus_text, Kernel, KernelConfig, ObsConfig, SpanRecord,
};
use eden::transput::transform::Identity;
use eden::transput::{Discipline, PipelineRun, PipelineSpec};

fn obs_kernel() -> Kernel {
    Kernel::with_config(KernelConfig {
        observability: ObsConfig::full(),
        ..KernelConfig::default()
    })
}

/// A depth-`depth` identity pipeline at batch 1 — the configuration in
/// which §4's per-datum invocation counts are exact.
fn run_traced(kernel: &Kernel, discipline: Discipline, items: usize, depth: usize) -> PipelineRun {
    let mut spec = PipelineSpec::new(discipline)
        .source_vec((0..items as i64).map(Value::Int).collect())
        .batch(1);
    for _ in 0..depth {
        spec = spec.stage(Box::new(Identity));
    }
    spec.build(kernel)
        .expect("build")
        .run(Duration::from_secs(30))
        .expect("run")
}

/// Spans settle before their reply is sent, but the final replies of a run
/// can resolve on coordinator threads after `run` returns; poll until the
/// trace has at least `at_least` spans (or the deadline passes and the
/// caller's assertion reports the shortfall).
fn spans_of(kernel: &Kernel, trace: u64, at_least: usize) -> Vec<SpanRecord> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let spans: Vec<SpanRecord> = kernel
            .spans()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect();
        if spans.len() >= at_least || Instant::now() >= deadline {
            return spans;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Check that `spans` form one tree: span ids unique, every parent either
/// another recorded span (with `hop` exactly one less) or the single
/// unrecorded ambient root the pipeline entered. Returns the root id.
fn assert_single_tree(spans: &[SpanRecord]) -> u64 {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids must be unique");
    let mut roots = HashSet::new();
    for s in spans {
        let parent = s.parent.unwrap_or_else(|| {
            panic!(
                "span {} has no parent: every invocation of a pipeline run is caused",
                s.span
            )
        });
        match by_id.get(&parent) {
            Some(p) => assert_eq!(
                s.hop,
                p.hop + 1,
                "span {} is {} hops out but its parent {} is {}",
                s.span,
                s.hop,
                p.span,
                p.hop
            ),
            None => {
                // The pipeline's ambient root: not an invocation, so not
                // recorded — but unique per run.
                assert_eq!(s.hop, 1, "a root child must be one hop out");
                roots.insert(parent);
            }
        }
    }
    assert_eq!(
        roots.len(),
        1,
        "one run must yield one tree, got roots {roots:?}"
    );
    *roots.iter().next().expect("nonempty")
}

#[test]
fn read_only_trace_has_n_plus_one_edges_per_datum() {
    const ITEMS: usize = 24;
    const DEPTH: usize = 3;
    let kernel = obs_kernel();
    let run = run_traced(
        &kernel,
        Discipline::ReadOnly { read_ahead: 0 },
        ITEMS,
        DEPTH,
    );
    assert_eq!(run.records_out, ITEMS as u64);
    let expected = (DEPTH + 1) * ITEMS;
    let spans = spans_of(&kernel, run.trace, expected);
    assert_eq!(
        spans.len(),
        expected,
        "read-only: (n+1)·k spans expected for n={DEPTH}, k={ITEMS}"
    );
    assert!(
        spans.iter().all(|s| s.op.as_str() == "Transfer" && s.ok),
        "read-only data phase is Transfer pulls only"
    );
    assert_single_tree(&spans);
    // The spans and the metered ledger count the same events.
    assert_eq!(spans.len() as u64, run.metrics.invocations);
    kernel.shutdown();
}

#[test]
fn write_only_trace_adds_only_the_start_invocation() {
    const ITEMS: usize = 24;
    const DEPTH: usize = 3;
    let kernel = obs_kernel();
    let run = run_traced(
        &kernel,
        Discipline::WriteOnly { push_ahead: 0 },
        ITEMS,
        DEPTH,
    );
    assert_eq!(run.records_out, ITEMS as u64);
    let expected = (DEPTH + 1) * ITEMS + 1;
    let spans = spans_of(&kernel, run.trace, expected);
    assert_eq!(
        spans.len(),
        expected,
        "write-only: (n+1)·k Writes plus one Start for n={DEPTH}, k={ITEMS}"
    );
    let starts = spans.iter().filter(|s| s.op.as_str() == "Start").count();
    let writes = spans.iter().filter(|s| s.op.as_str() == "Write").count();
    assert_eq!(starts, 1, "exactly one Start control invocation");
    assert_eq!(writes, (DEPTH + 1) * ITEMS, "(n+1)·k Write pushes");
    assert_single_tree(&spans);
    kernel.shutdown();
}

#[test]
fn conventional_trace_pays_two_n_plus_two_edges_per_datum() {
    const ITEMS: usize = 12;
    const DEPTH: usize = 2;
    let kernel = obs_kernel();
    let run = run_traced(
        &kernel,
        Discipline::Conventional { buffer_capacity: 4 },
        ITEMS,
        DEPTH,
    );
    assert_eq!(run.records_out, ITEMS as u64);
    // 2n+2 invocations per datum plus the Start, with the same bounded
    // slack as the invocation-count property: readers racing end-of-stream
    // may add a constant number of empty transfers per stage, never per
    // datum.
    let expected = (2 * DEPTH + 2) * ITEMS + 1;
    let slack = (2 * DEPTH + 3) * 2 + 1;
    let spans = spans_of(&kernel, run.trace, expected);
    assert!(
        spans.len() >= expected && spans.len() <= expected + slack,
        "conventional: {} spans outside [{}, {}] for n={DEPTH}, k={ITEMS}",
        spans.len(),
        expected,
        expected + slack
    );
    assert_single_tree(&spans);
    kernel.shutdown();
}

#[test]
fn two_runs_on_one_kernel_are_distinct_trees() {
    let kernel = obs_kernel();
    let a = run_traced(&kernel, Discipline::ReadOnly { read_ahead: 0 }, 6, 1);
    let b = run_traced(&kernel, Discipline::ReadOnly { read_ahead: 0 }, 6, 1);
    assert_ne!(a.trace, b.trace, "each run is its own trace");
    let sa = spans_of(&kernel, a.trace, 12);
    let sb = spans_of(&kernel, b.trace, 12);
    assert_eq!(sa.len(), 12);
    assert_eq!(sb.len(), 12);
    assert_ne!(assert_single_tree(&sa), assert_single_tree(&sb));
    kernel.shutdown();
}

#[test]
fn disabled_plane_records_nothing() {
    let kernel = Kernel::new();
    let run = run_traced(&kernel, Discipline::ReadOnly { read_ahead: 0 }, 8, 1);
    assert_eq!(run.records_out, 8);
    assert!(!kernel.spans_enabled());
    assert!(kernel.spans().is_empty());
    let snap = kernel.metrics_snapshot();
    assert_eq!(snap.spans_recorded, 0);
    assert_eq!(snap.spans_dropped, 0);
    assert!(snap.stages.is_empty(), "histograms off by default");
    kernel.shutdown();
}

// ---------------------------------------------------------------------------
// Export surfaces. The Prometheus check is a real parser of the text
// exposition format — it is the CI lint for the `stats --prometheus`
// surface, not a substring probe.
// ---------------------------------------------------------------------------

/// Parse and lint a Prometheus text-format document: `# HELP`/`# TYPE`
/// precede their family's samples, metric names are legal, counters end in
/// `_total`, summaries only emit `quantile`d samples plus `_sum`/`_count`,
/// every value parses as a finite float, and every declared family has at
/// least one sample.
fn lint_prometheus(text: &str) {
    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    // family -> (type, has_help, sample_count)
    let mut families: HashMap<String, (String, bool, usize)> = HashMap::new();
    let mut last_declared = String::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("line {n}: HELP without text"));
            assert!(is_name(name), "line {n}: bad metric name {name:?}");
            assert!(!help.trim().is_empty(), "line {n}: empty HELP");
            families.entry(name.to_owned()).or_default().1 = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("line {n}: TYPE without kind"));
            assert!(is_name(name), "line {n}: bad metric name {name:?}");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ),
                "line {n}: unknown type {kind:?}"
            );
            let fam = families.entry(name.to_owned()).or_default();
            assert!(fam.0.is_empty(), "line {n}: duplicate TYPE for {name}");
            fam.0 = kind.to_owned();
            if kind == "counter" {
                assert!(
                    name.ends_with("_total"),
                    "line {n}: counter {name} must end in _total"
                );
            }
            last_declared = name.to_owned();
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "line {n}: unknown comment form {line:?}"
        );
        // A sample: name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("line {n}: sample without value"));
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("line {n}: unparsable value {value:?}"));
        assert!(v.is_finite(), "line {n}: non-finite value");
        let (name, labels) = match name_labels.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("line {n}: unclosed label block"));
                (name, Some(labels))
            }
            None => (name_labels, None),
        };
        assert!(is_name(name), "line {n}: bad sample name {name:?}");
        if let Some(labels) = labels {
            for pair in split_labels(labels) {
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("line {n}: label without '=': {pair:?}"));
                assert!(is_name(k), "line {n}: bad label name {k:?}");
                assert!(
                    v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                    "line {n}: unquoted label value {v:?}"
                );
            }
        }
        // Resolve the family: summaries sample via `_sum` / `_count` too.
        let family = ["_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let base = name.strip_suffix(suf)?;
                families.contains_key(base).then(|| base.to_owned())
            })
            .unwrap_or_else(|| name.to_owned());
        let fam = families
            .get_mut(&family)
            .unwrap_or_else(|| panic!("line {n}: sample {name} before its TYPE declaration"));
        assert!(
            !fam.0.is_empty(),
            "line {n}: sample {name} with HELP but no TYPE"
        );
        fam.2 += 1;
        assert_eq!(
            family, last_declared,
            "line {n}: sample {name} not grouped under its declaration"
        );
    }
    for (name, (kind, has_help, samples)) in &families {
        assert!(has_help, "{name}: TYPE without HELP");
        assert!(!kind.is_empty(), "{name}: HELP without TYPE");
        assert!(*samples > 0, "{name}: declared but never sampled");
    }
}

/// Split a Prometheus label block on commas that sit outside quotes.
fn split_labels(labels: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
    for (i, c) in labels.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&labels[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < labels.len() {
        out.push(&labels[start..]);
    }
    out
}

#[test]
fn prometheus_export_survives_the_format_lint() {
    let kernel = obs_kernel();
    let run = run_traced(&kernel, Discipline::ReadOnly { read_ahead: 0 }, 20, 2);
    assert_eq!(run.records_out, 20);
    let _ = spans_of(&kernel, run.trace, 3 * 20);
    let text = prometheus_text(&kernel.metrics_snapshot());
    lint_prometheus(&text);
    // The stage summaries made it out with quantile labels.
    assert!(
        text.contains("eden_stage_service_seconds{"),
        "no stage summary:\n{text}"
    );
    assert!(text.contains("quantile=\"0.99\""));
    assert!(text.contains("eden_invocations_total"));
    kernel.shutdown();
}

#[test]
fn prometheus_lint_rejects_malformed_documents() {
    let well_formed = "# HELP x_total fine\n# TYPE x_total counter\nx_total 1\n";
    lint_prometheus(well_formed);
    // The rejections below panic by design; keep their backtraces out of
    // the test output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for bad in [
        "x_total 1\n",                                                    // sample before TYPE
        "# HELP x_total fine\n# TYPE x_total counter\nx_total NaN-ish\n", // bad value
        "# HELP x fine\n# TYPE x counter\nx 1\n",                         // counter without _total
        "# HELP x_total fine\n# TYPE x_total counter\nx_total{l=unquoted} 1\n",
        "# HELP x_total fine\n# TYPE x_total counter\n", // declared, never sampled
    ] {
        let rejected = std::panic::catch_unwind(|| lint_prometheus(bad)).is_err();
        assert!(rejected, "lint accepted: {bad:?}");
    }
    std::panic::set_hook(prev);
}

#[test]
fn json_export_is_balanced_and_complete() {
    let kernel = obs_kernel();
    let run = run_traced(&kernel, Discipline::ReadOnly { read_ahead: 0 }, 10, 1);
    let _ = spans_of(&kernel, run.trace, 2 * 10);
    let text = json_text(&kernel.metrics_snapshot());
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert_eq!(text.matches('[').count(), text.matches(']').count());
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"stages\"",
        "\"eden_invocations_total\"",
    ] {
        assert!(text.contains(key), "missing {key} in:\n{text}");
    }
    kernel.shutdown();
}

#[test]
fn chrome_trace_export_emits_one_complete_event_per_span() {
    let kernel = obs_kernel();
    let run = run_traced(&kernel, Discipline::ReadOnly { read_ahead: 0 }, 8, 1);
    let spans = spans_of(&kernel, run.trace, 2 * 8);
    let text = chrome_trace_json(&spans);
    assert!(text.starts_with("{\"traceEvents\":["));
    assert_eq!(text.matches("\"ph\":\"X\"").count(), spans.len());
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert_eq!(text.matches("\"cat\":\"invocation\"").count(), spans.len());
    kernel.shutdown();
}
