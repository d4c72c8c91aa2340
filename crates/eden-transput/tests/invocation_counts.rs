//! The paper's headline arithmetic (§4), measured rather than assumed.
//!
//! "One advantage of the 'read only' system just outlined is that a
//! sequence of n filters, a source and a sink can all be implemented by
//! n+2 Ejects. This means that only n+1 invocations are needed to transfer
//! a datum from one end of the pipeline to the other. Conversely, if each
//! filter were to perform active output as well as active input, 2n+2
//! invocations would be needed, as would n+1 passive buffer Ejects."

use std::time::Duration;

use eden_core::Value;
use eden_kernel::Kernel;
use eden_transput::transform::Identity;
use eden_transput::{Discipline, PipelineRun, PipelineSpec};

const ITEMS: i64 = 200;

fn run_identity_pipeline(discipline: Discipline, depth: usize) -> PipelineRun {
    let kernel = Kernel::new();
    let mut builder = PipelineSpec::new(discipline)
        .source_vec((0..ITEMS).map(Value::Int).collect())
        .batch(1); // One datum per invocation: per-datum counts are exact.
    for _ in 0..depth {
        builder = builder.stage(Box::new(Identity));
    }
    let run = builder
        .build(&kernel)
        .unwrap()
        .run(Duration::from_secs(30))
        .unwrap();
    kernel.shutdown();
    run
}

#[test]
fn read_only_entities_are_n_plus_2() {
    for n in [0usize, 1, 3, 5] {
        let run = run_identity_pipeline(Discipline::ReadOnly { read_ahead: 0 }, n);
        assert_eq!(run.entities, n + 2, "read-only entities at n={n}");
    }
}

#[test]
fn conventional_entities_are_2n_plus_3() {
    for n in [1usize, 2, 4] {
        let run = run_identity_pipeline(Discipline::Conventional { buffer_capacity: 8 }, n);
        assert_eq!(run.entities, 2 * n + 3, "conventional entities at n={n}");
    }
}

#[test]
fn read_only_invocations_are_n_plus_1_per_datum() {
    for n in [0usize, 1, 3, 5] {
        let run = run_identity_pipeline(Discipline::ReadOnly { read_ahead: 0 }, n);
        assert_eq!(run.records_out, ITEMS as u64);
        let expected = (n as u64 + 1) * ITEMS as u64;
        assert_eq!(
            run.metrics.invocations,
            expected,
            "read-only invocations at n={n}: {} per datum",
            run.invocations_per_record()
        );
    }
}

#[test]
fn write_only_invocations_are_n_plus_1_per_datum() {
    // The dual (§5): also n+1, plus the single Start control invocation.
    for n in [0usize, 1, 3] {
        let run = run_identity_pipeline(Discipline::WriteOnly { push_ahead: 0 }, n);
        let expected = (n as u64 + 1) * ITEMS as u64 + 1;
        assert_eq!(
            run.metrics.invocations, expected,
            "write-only invocations at n={n}"
        );
    }
}

#[test]
fn conventional_invocations_are_2n_plus_2_per_datum() {
    for n in [1usize, 2, 4] {
        let run = run_identity_pipeline(Discipline::Conventional { buffer_capacity: 8 }, n);
        // 2n+2 data invocations per datum, plus the Start control
        // invocation. Buffers may add a bounded number of extra empty
        // transfers near end-of-stream when a reader races the final
        // write; allow that constant-per-stage slack but no per-datum
        // slack.
        let expected = (2 * n as u64 + 2) * ITEMS as u64;
        let slack = (2 * n as u64 + 3) * 2 + 1;
        assert!(
            run.metrics.invocations >= expected,
            "conventional invocations at n={n}: {} < {expected}",
            run.metrics.invocations
        );
        assert!(
            run.metrics.invocations <= expected + slack,
            "conventional invocations at n={n}: {} > {expected}+{slack}",
            run.metrics.invocations
        );
    }
}

#[test]
fn asymmetric_disciplines_save_roughly_half() {
    let n = 4;
    let ro = run_identity_pipeline(Discipline::ReadOnly { read_ahead: 0 }, n);
    let conv = run_identity_pipeline(Discipline::Conventional { buffer_capacity: 8 }, n);
    let ratio = conv.metrics.invocations as f64 / ro.metrics.invocations as f64;
    // (2n+2)/(n+1) = 2 exactly.
    assert!(
        (ratio - 2.0).abs() < 0.1,
        "expected ~2x invocation saving, got {ratio:.3}"
    );
    // And the buffer Ejects disappear: n+1 fewer entities.
    assert_eq!(conv.entities - ro.entities, n + 1);
}
