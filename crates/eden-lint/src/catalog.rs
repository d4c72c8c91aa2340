//! The in-repo wiring catalog: every pipeline *shape* the repository
//! actually builds, reconstructed as a kernel-free [`PipelineSpec`] (or a
//! recovery chain) and rendered to its [`WiringGraph`].
//!
//! `PipelineSpec::build` already refuses non-conforming specs, so this
//! pass cannot find a violation that a test run would not — its value is
//! that it proves conformance *statically*, without spawning a kernel,
//! and that it keeps doing so for shapes only exercised by examples,
//! benches, and the shell. A violation here means a wiring template the
//! repo ships is unsound under its own discipline.

use eden_core::{Result, Value};
use eden_transput::recovery::{recovery_graph, RecoveryDiscipline};
use eden_transput::source::VecSource;
use eden_transput::transform::{Emitter, Identity, Transform};
use eden_transput::{ChannelPolicy, Discipline, FanInMode, PipelineSpec, Violation, WiringGraph};

/// A transform with a secondary `Report` channel — the shape of
/// `SpellCheck` in the report-streams example (Figures 3 and 4), without
/// depending on the filter library.
#[derive(Debug)]
struct Reporter;

impl Transform for Reporter {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        out.emit(item);
    }
    fn name(&self) -> &'static str {
        "reporter"
    }
    fn secondary_channels(&self) -> Vec<&'static str> {
        vec!["Report"]
    }
}

fn items() -> Vec<Value> {
    (0..4).map(Value::Int).collect()
}

fn two_sources() -> Vec<Box<dyn eden_transput::source::PullSource>> {
    vec![
        Box::new(VecSource::new(items())),
        Box::new(VecSource::new(items())),
    ]
}

/// Every pipeline shape the repo builds through [`PipelineSpec`], as
/// `(name, spec)` pairs: kernel-free until someone calls `build`.
pub fn shapes() -> Vec<(String, PipelineSpec)> {
    let mut entries: Vec<(String, PipelineSpec)> = Vec::new();

    // The plain chains every test, bench, and example builds.
    for (label, discipline) in [
        ("read-only/chain", Discipline::ReadOnly { read_ahead: 0 }),
        ("read-only/read-ahead", Discipline::ReadOnly { read_ahead: 8 }),
        ("write-only/chain", Discipline::WriteOnly { push_ahead: 0 }),
        ("write-only/push-ahead", Discipline::WriteOnly { push_ahead: 4 }),
        (
            "conventional/chain",
            Discipline::Conventional { buffer_capacity: 4 },
        ),
    ] {
        entries.push((
            label.to_owned(),
            PipelineSpec::new(discipline)
                .source_vec(items())
                .stage(Box::new(Identity))
                .stage(Box::new(Identity)),
        ));
    }

    // §5 connection protocol: the same chain under capability channels.
    entries.push((
        "read-only/capability".to_owned(),
        PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_vec(items())
            .stage(Box::new(Identity))
            .policy(ChannelPolicy::Capability),
    ));

    // Figure 4: a report window tapping a secondary channel.
    entries.push((
        "read-only/tapped-report".to_owned(),
        PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_vec(items())
            .stage(Box::new(Reporter))
            .tap(0, "Report")
            .policy(ChannelPolicy::Capability),
    ));
    entries.push((
        "conventional/tapped-report".to_owned(),
        PipelineSpec::new(Discipline::Conventional { buffer_capacity: 4 })
            .source_vec(items())
            .stage(Box::new(Reporter))
            .tap(0, "Report"),
    ));

    // Merged sources in all three disciplines — including the write-only
    // fan-in workaround of §5 (pull-wired merge behind the pump).
    for (label, discipline) in [
        ("read-only/merged", Discipline::ReadOnly { read_ahead: 0 }),
        ("write-only/merged", Discipline::WriteOnly { push_ahead: 0 }),
        (
            "conventional/merged",
            Discipline::Conventional { buffer_capacity: 4 },
        ),
    ] {
        entries.push((
            label.to_owned(),
            PipelineSpec::new(discipline)
                .source_merge(two_sources(), FanInMode::Concatenate)
                .stage(Box::new(Identity)),
        ));
    }

    // The adaptive-batching and distribution dials (benches + E-series).
    entries.push((
        "read-only/adaptive-distributed".to_owned(),
        PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_vec(items())
            .stage(Box::new(Identity))
            .adaptive_batch(48)
            .over_nodes(3),
    ));

    // The shell's default pipeline shape (`eden-shell::exec`).
    entries.push((
        "shell/default".to_owned(),
        PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_vec(items())
            .stage(Box::new(Identity))
            .batch(4),
    ));

    entries
}

/// Every wiring shape the repo builds, as `(name, graph)` pairs. Names are
/// stable identifiers used in reports and tests.
pub fn catalog() -> Result<Vec<(String, WiringGraph)>> {
    let mut graphs: Vec<(String, WiringGraph)> = shapes()
        .into_iter()
        .map(|(name, spec)| spec.graph().map(|g| (name, g)))
        .collect::<Result<_>>()?;

    for (name, discipline, chain) in recovery_chains() {
        graphs.push((name, recovery_graph(discipline, chain)));
    }
    Ok(graphs)
}

/// The recovery plane's chains (crates/eden-transput/src/recovery.rs), as
/// `(name, discipline, transforms)`: a two-filter chain, and the
/// zero-transform chain, where conventional is left with its single
/// identity pump and no buffer.
fn recovery_chains() -> Vec<(String, RecoveryDiscipline, &'static [&'static str])> {
    let mut chains = Vec::new();
    for (label, discipline) in [
        ("recovery/read-only", RecoveryDiscipline::ReadOnly),
        ("recovery/write-only", RecoveryDiscipline::WriteOnly),
        ("recovery/conventional", RecoveryDiscipline::Conventional),
    ] {
        chains.push((label.to_owned(), discipline, &["upcase", "grep"][..]));
        chains.push((format!("{label}/empty"), discipline, &[][..]));
    }
    chains
}

/// Check every catalog entry; returns only the entries with violations.
pub fn check_catalog() -> Result<Vec<(String, Vec<Violation>)>> {
    Ok(catalog()?
        .into_iter()
        .map(|(name, graph)| (name, graph.check()))
        .filter(|(_, v)| !v.is_empty())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_disciplines_and_recovery() {
        let graphs = catalog().unwrap();
        assert!(graphs.len() >= 12);
        for prefix in ["read-only/", "write-only/", "conventional/", "recovery/"] {
            assert!(
                graphs.iter().any(|(n, _)| n.starts_with(prefix)),
                "no {prefix} entry"
            );
        }
    }

    #[test]
    fn every_shipped_shape_conforms() {
        assert_eq!(check_catalog().unwrap(), Vec::new());
    }

    #[test]
    fn every_shape_spawns_the_graph_that_was_checked() {
        // One plan feeds `graph()` and `build()`: a node per Eject, no more
        // and no fewer. (No catalog shape reads an Eject it did not spawn;
        // such a source would be a node and not an entity.)
        let kernel = eden_kernel::Kernel::new();
        for ((name, checked), (_, built)) in shapes().into_iter().zip(shapes()) {
            let nodes = checked.graph().unwrap().nodes.len();
            let run = built
                .build(&kernel)
                .and_then(|pipeline| pipeline.run(std::time::Duration::from_secs(20)))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(run.entities, nodes, "{name}");
        }
        // The recovery chains likewise — except that where the driver is
        // the chain's sink it is a node, and no Eject.
        use eden_transput::recovery::{
            install_recovery, run_recoverable_pipeline, TransformFactory, TransformRegistry,
        };
        let copy: TransformFactory = || Box::new(Identity);
        let registry = TransformRegistry::new(&[("upcase", copy), ("grep", copy)]);
        install_recovery(&kernel, &registry);
        for (name, discipline, chain) in recovery_chains() {
            let graph = recovery_graph(discipline, chain);
            let nodes = graph.nodes.len() - usize::from(graph.nodes.contains_key("driver"));
            let timeout = std::time::Duration::from_secs(20);
            let run =
                run_recoverable_pipeline(&kernel, discipline, items(), chain, &registry, 2, timeout)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!((run.stages.len(), run.output), (nodes, items()), "{name}");
        }
        kernel.shutdown();
    }
}
