//! One run's results: the ledger a workload writes its figures and checks
//! into, and the two renderings of it — `name unit value` lines for people,
//! and the last-line JSON object the repository's driver reads.

use std::collections::BTreeMap;

use crate::decl::{Workload, METRICS};
use crate::host::Env;

/// What a workload run produced.
#[derive(Debug)]
pub struct Ledger {
    workload: Workload,
    traced: bool,
    values: BTreeMap<&'static str, f64>,
    /// Problems with the emission itself (undeclared or repeated names).
    misuse: Vec<String>,
    /// Operations attempted, over every reference check.
    pub attempted: u64,
    /// Operations that failed a reference check.
    pub failed: u64,
    /// The first few failures, in words.
    pub failures: Vec<String>,
    /// Free-form context: sizes, sample counts, quartiles.
    pub notes: Vec<String>,
}

impl Ledger {
    /// An empty ledger for a run of `workload`.
    pub fn new(workload: Workload, traced: bool) -> Ledger {
        Ledger {
            workload,
            traced,
            values: BTreeMap::new(),
            misuse: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric. The name must be one a run of this workload reports,
    /// and not yet recorded; anything else is listed by
    /// [`problems`](Self::problems).
    pub fn put(&mut self, name: &str, value: f64) {
        if self.values.contains_key(name) {
            self.misuse.push(format!("metric {name} emitted twice"));
        }
        self.put_probe(name, value);
    }

    /// Record a metric unless the run has it already: what the probe suite
    /// uses, so that a figure the workload measured itself stands.
    pub fn put_probe(&mut self, name: &str, value: f64) {
        match crate::decl::metric(name) {
            Some(m) if m.reported_by(self.workload, self.traced) => {
                self.values.entry(m.name).or_insert(value);
            }
            // An end-to-end figure is measured by every run; only a traced
            // one prints the per-layer figures that come with it.
            Some(m) if m.reported_by(self.workload, true) => {}
            Some(_) => self.misuse.push(format!(
                "metric {name} is not declared for {}",
                self.workload
            )),
            None => self.misuse.push(format!("metric {name} is not declared")),
        }
    }

    /// Count `attempted` operations of which `failed` did not match their
    /// reference, describing the check in `what`.
    pub fn check(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// Share of the checked operations that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Add a line of context.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Everything wrong with what was emitted: misuse of `put`, and
    /// expected metrics that are missing or not finite.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = self.misuse.clone();
        let expected = METRICS
            .iter()
            .filter(|m| m.reported_by(self.workload, self.traced));
        for m in expected {
            match self.values.get(m.name) {
                None => problems.push(format!("metric {} was not emitted", m.name)),
                Some(v) if !v.is_finite() => {
                    problems.push(format!("metric {} is {v}", m.name));
                }
                Some(_) => {}
            }
        }
        if self.attempted == 0 {
            problems.push("no operation was checked against a reference".to_owned());
        }
        problems
    }

    /// The `name unit value` lines, in declaration order.
    pub fn metric_lines(&self) -> Vec<String> {
        METRICS
            .iter()
            .filter_map(|m| {
                Some(format!(
                    "{} {} {}",
                    m.name,
                    m.unit,
                    self.values.get(m.name)?
                ))
            })
            .collect()
    }

    /// The driver's object: every gated metric for an untraced run, every
    /// other metric for a traced one (0 where it is not applicable).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = METRICS
            .iter()
            .filter(|m| m.gated() != self.traced)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.values.get(m.name).copied().unwrap_or(0.0),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Print a finished run: `env` lines, notes, metrics, failures, and the
/// JSON object last.
pub fn print_run(env: &Env, seed: u64, ledger: &Ledger) {
    println!("workload {}", ledger.workload);
    for line in env.lines() {
        println!("{line}");
    }
    println!("env seed {seed}");
    for note in &ledger.notes {
        println!("note {note}");
    }
    for line in ledger.metric_lines() {
        println!("{line}");
    }
    for failure in &ledger.failures {
        println!("FAILED {failure}");
    }
    println!("{}", ledger.json());
}
