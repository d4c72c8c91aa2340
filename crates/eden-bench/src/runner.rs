//! Shared helpers for building and measuring pipelines.

use std::time::Duration;

use eden_core::Value;
use eden_kernel::Kernel;
use eden_transput::transform::{Identity, Transform};
use eden_transput::{ChannelPolicy, Discipline, PipelineSpec, PipelineRun};

/// Generous deadline for experiment pipelines.
pub const DEADLINE: Duration = Duration::from_secs(120);

/// Run a pipeline of the given stages over `input` and return the run.
pub fn run_pipeline(
    kernel: &Kernel,
    discipline: Discipline,
    input: Vec<Value>,
    stages: Vec<Box<dyn Transform>>,
    batch: usize,
    policy: ChannelPolicy,
    taps: &[(usize, &str)],
) -> PipelineRun {
    let mut builder = PipelineSpec::new(discipline)
        .source_vec(input)
        .batch(batch)
        .policy(policy);
    for stage in stages {
        builder = builder.stage(stage);
    }
    for (idx, channel) in taps {
        builder = builder.tap(*idx, channel);
    }
    builder
        .build(kernel)
        .expect("pipeline builds")
        .run(DEADLINE)
        .expect("pipeline completes")
}

/// Run an identity pipeline (the cost-measurement workhorse).
pub fn run_identity(
    kernel: &Kernel,
    discipline: Discipline,
    input: Vec<Value>,
    depth: usize,
    batch: usize,
) -> PipelineRun {
    run_pipeline(
        kernel,
        discipline,
        input,
        (0..depth).map(|_| Box::new(Identity) as Box<dyn Transform>).collect(),
        batch,
        ChannelPolicy::Integer,
        &[],
    )
}

/// Format a float with sensible precision for tables.
pub fn fmt_f(v: f64) -> String {
    if !v.is_finite() {
        return "inf".into();
    }
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format records/second as kilo-records/second.
pub fn fmt_krate(records: u64, wall: Duration) -> String {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        return "inf".into();
    }
    format!("{:.1}", records as f64 / secs / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_run_copies_input() {
        let kernel = Kernel::new();
        let input: Vec<Value> = (0..10).map(Value::Int).collect();
        let run = run_identity(
            &kernel,
            Discipline::ReadOnly { read_ahead: 0 },
            input.clone(),
            2,
            4,
        );
        assert_eq!(run.output, input);
        kernel.shutdown();
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_f(0.5), "0.50");
        assert_eq!(fmt_f(42.0), "42.0");
        assert_eq!(fmt_f(1234.4), "1234");
        assert_eq!(fmt_f(f64::INFINITY), "inf");
    }
}
