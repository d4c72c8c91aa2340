//! The central correctness property of the reproduction: the three
//! communication disciplines (and their concurrency variants) are
//! *behaviourally equivalent* — for any input and any filter chain they
//! produce exactly the primary stream that the pure transforms produce
//! offline. The paper's argument (§5: "both are equally convenient in the
//! case of a pipeline of pure filters") depends on this.

use std::time::Duration;

use eden::core::Value;
use eden::filters;
use eden::kernel::Kernel;
use eden::transput::transform::{apply_chain_offline, Transform};
use eden::transput::{ChannelPolicy, Discipline, PipelineRun, PipelineSpec};
use proptest::prelude::*;

/// The filter chain vocabulary for random pipelines.
#[derive(Debug, Clone)]
enum FilterPick {
    Copy,
    StripComments,
    GrepKeep(String),
    GrepDrop(String),
    Upcase,
    Downcase,
    LineNumber,
    Head(u64),
    Tail(u64),
    Sort,
    Uniq,
    SqueezeBlank,
    RleRoundtrip,
}

impl FilterPick {
    fn build(&self) -> Vec<Box<dyn Transform>> {
        match self {
            FilterPick::Copy => vec![Box::new(eden::transput::transform::Identity)],
            FilterPick::StripComments => vec![Box::new(filters::StripComments::fortran())],
            FilterPick::GrepKeep(p) => vec![Box::new(filters::Grep::matching(p))],
            FilterPick::GrepDrop(p) => vec![Box::new(filters::Grep::deleting(p))],
            FilterPick::Upcase => vec![Box::new(filters::CaseFold::upper())],
            FilterPick::Downcase => vec![Box::new(filters::CaseFold::lower())],
            FilterPick::LineNumber => vec![Box::new(filters::LineNumber::new())],
            FilterPick::Head(n) => vec![Box::new(filters::Head::new(*n))],
            FilterPick::Tail(n) => vec![Box::new(filters::Tail::new(*n as usize))],
            FilterPick::Sort => vec![Box::new(filters::SortLines::new())],
            FilterPick::Uniq => vec![Box::new(filters::Uniq::new())],
            FilterPick::SqueezeBlank => vec![Box::new(filters::SqueezeBlank)],
            FilterPick::RleRoundtrip => vec![
                Box::new(filters::RleEncode::new()),
                Box::new(filters::RleDecode::new()),
            ],
        }
    }
}

fn filter_strategy() -> impl Strategy<Value = FilterPick> {
    prop_oneof![
        Just(FilterPick::Copy),
        Just(FilterPick::StripComments),
        "[a-c]{1,2}".prop_map(FilterPick::GrepKeep),
        "[a-c]{1,2}".prop_map(FilterPick::GrepDrop),
        Just(FilterPick::Upcase),
        Just(FilterPick::Downcase),
        Just(FilterPick::LineNumber),
        (0u64..12).prop_map(FilterPick::Head),
        (0u64..12).prop_map(FilterPick::Tail),
        Just(FilterPick::Sort),
        Just(FilterPick::Uniq),
        Just(FilterPick::SqueezeBlank),
        Just(FilterPick::RleRoundtrip),
    ]
}

fn input_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-cC ]{0,12}", 0..25)
}

fn run_full(
    kernel: &Kernel,
    discipline: Discipline,
    policy: ChannelPolicy,
    input: &[String],
    picks: &[FilterPick],
    batch: usize,
) -> PipelineRun {
    let mut builder = PipelineSpec::new(discipline)
        .source_vec(input.iter().map(|l| Value::str(l.clone())).collect())
        .batch(batch)
        .policy(policy);
    for pick in picks {
        for t in pick.build() {
            builder = builder.stage(t);
        }
    }
    builder
        .build(kernel)
        .expect("build")
        .run(Duration::from_secs(30))
        .expect("run")
}

fn run_pipeline(
    kernel: &Kernel,
    discipline: Discipline,
    policy: ChannelPolicy,
    input: &[String],
    picks: &[FilterPick],
    batch: usize,
) -> Vec<Value> {
    run_full(kernel, discipline, policy, input, picks, batch).output
}

fn offline(input: &[String], picks: &[FilterPick]) -> Vec<Value> {
    let mut chain: Vec<Box<dyn Transform>> = picks.iter().flat_map(|p| p.build()).collect();
    apply_chain_offline(
        &mut chain,
        input.iter().map(|l| Value::str(l.clone())).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_discipline_matches_functional_semantics(
        input in input_strategy(),
        picks in proptest::collection::vec(filter_strategy(), 0..4),
        batch in 1usize..6,
    ) {
        let expected = offline(&input, &picks);
        let kernel = Kernel::new();
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::ReadOnly { read_ahead: 8 },
            Discipline::WriteOnly { push_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 4 },
            Discipline::Conventional { buffer_capacity: 4 },
        ] {
            let got = run_pipeline(
                &kernel,
                discipline,
                ChannelPolicy::Integer,
                &input,
                &picks,
                batch,
            );
            prop_assert_eq!(
                &got,
                &expected,
                "discipline {} diverged (batch {})",
                discipline.label(),
                batch
            );
        }
        kernel.shutdown();
    }

    #[test]
    fn capability_policy_is_transparent(
        input in input_strategy(),
        picks in proptest::collection::vec(filter_strategy(), 0..3),
    ) {
        // §5: capability channels change who *may* read, not what is read.
        let expected = offline(&input, &picks);
        let kernel = Kernel::new();
        let got = run_pipeline(
            &kernel,
            Discipline::ReadOnly { read_ahead: 0 },
            ChannelPolicy::Capability,
            &input,
            &picks,
            3,
        );
        prop_assert_eq!(got, expected);
        kernel.shutdown();
    }

    #[test]
    fn read_only_formula_is_exact_under_caching(
        depth in 0usize..5,
        records in 0usize..40,
        batch in 1usize..7,
    ) {
        // §4: n+1 invocations move a batch end to end. With k records in
        // batches of b that is (n+1)·⌈k/b⌉ Transfers (one round even when
        // empty) — and route caching must not change the count by a
        // single invocation: hits make delivery cheaper, not rarer.
        let input: Vec<String> = (0..records).map(|i| format!("r{i}")).collect();
        let picks = vec![FilterPick::Copy; depth];
        let kernel = Kernel::new();
        let run = run_full(
            &kernel,
            Discipline::ReadOnly { read_ahead: 0 },
            ChannelPolicy::Integer,
            &input,
            &picks,
            batch,
        );
        kernel.shutdown();
        let rounds = records.div_ceil(batch).max(1) as u64;
        let expected = (depth as u64 + 1) * rounds;
        prop_assert_eq!(
            run.metrics.invocations,
            expected,
            "(n+1)·⌈k/b⌉ violated at n={}, k={}, b={}",
            depth,
            records,
            batch
        );
        // Every Transfer went through a route cache: one cold miss per
        // pulling stage, hits for the rest.
        prop_assert_eq!(run.metrics.route_cache_hits + run.metrics.route_cache_misses, expected);
        if rounds >= 2 {
            prop_assert!(run.metrics.route_cache_hits > 0, "repeat pulls never hit the cache");
        }
    }

    #[test]
    fn conventional_formula_holds_under_caching(
        depth in 0usize..4,
        records in 0usize..25,
    ) {
        // §4's other half: 2n+2 invocations per datum at batch 1, plus
        // the Start control invocation. Buffers may add a bounded number
        // of empty end-of-stream transfers (reader racing the final
        // write) — constant per stage, never per datum.
        let input: Vec<String> = (0..records).map(|i| format!("r{i}")).collect();
        let picks = vec![FilterPick::Copy; depth];
        let kernel = Kernel::new();
        let run = run_full(
            &kernel,
            Discipline::Conventional { buffer_capacity: 4 },
            ChannelPolicy::Integer,
            &input,
            &picks,
            1,
        );
        kernel.shutdown();
        let expected = (2 * depth as u64 + 2) * (records.max(1) as u64) + 1;
        let slack = (2 * depth as u64 + 3) * 2 + 1;
        // Pump processes start transferring at spawn, before the builder
        // snapshots its metrics baseline: each of the k filter pumps and
        // the sink may get its first (parking) Transfer metered into the
        // setup phase instead of the data phase. Bounded by k+1, never
        // per datum.
        let early = depth as u64 + 1;
        prop_assert!(
            run.metrics.invocations + early >= expected,
            "caching swallowed invocations: {} < {} at n={}, k={}",
            run.metrics.invocations,
            expected,
            depth,
            records
        );
        prop_assert!(
            run.metrics.invocations <= expected + slack,
            "{} > {}+{} at n={}, k={}",
            run.metrics.invocations,
            expected,
            slack,
            depth,
            records
        );
    }
}
