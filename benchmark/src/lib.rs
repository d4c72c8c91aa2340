//! The repository's one benchmark: five named workloads, end-to-end and
//! per-layer metrics from one declaration table, layer probes and a traced
//! repetition. `../BENCHMARK.json` declares it; `README.md` explains it.

pub mod decl;
pub mod host;
pub mod inputs;
pub mod probes;
pub mod repeat;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use decl::Workload;
use report::Ledger;
use workloads::RunConfig;

/// One finished run.
#[derive(Debug)]
pub struct Outcome {
    /// The host and placement it ran under.
    pub env: host::Env,
    /// Figures and checks.
    pub ledger: Ledger,
    /// The traced repetition's spans (empty for an untraced run).
    pub tracer: trace::Tracer,
}

impl Outcome {
    /// Whether the run may report success: every reference check passed and
    /// every declared metric was emitted exactly once.
    pub fn verdict(&self) -> Result<(), Vec<String>> {
        let mut problems = self.ledger.problems();
        problems.extend(self.ledger.failures.iter().cloned());
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// Run one workload in this process: apply its CPU placement, measure,
/// check. An `Err` is a run that could not be carried out (the placement
/// was refused, a pipeline hung); a run that finished with failed checks is
/// an `Ok` whose [`Outcome::verdict`] is an error.
pub fn run_workload(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut env = host::Env::capture()?;
    if cfg.workload.pinned() {
        let cpu = host::pin_to_first_cpu()
            .map_err(|e| format!("{} is a pinned workload and {e}", cfg.workload))?;
        env.applied_cpus = vec![cpu];
    }
    let mut ledger = Ledger::new(cfg.workload, cfg.traced);
    let mut tracer = if cfg.traced {
        trace::Tracer::new()
    } else {
        trace::Tracer::off()
    };
    workloads::run(cfg, &mut ledger, &mut tracer)?;
    Ok(Outcome {
        env,
        ledger,
        tracer,
    })
}

/// Where a traced run of `workload` writes its spans.
pub fn trace_path(workload: Workload) -> std::path::PathBuf {
    workloads::out_dir().join(format!("trace-{workload}.jsonl"))
}
