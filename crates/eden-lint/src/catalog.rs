//! The in-repo wiring catalog: every pipeline *shape* the repository
//! actually builds, reconstructed as a kernel-free [`PipelineSpec`],
//! retained or not, and rendered to its [`WiringGraph`].
//!
//! `PipelineSpec::build` already refuses non-conforming specs, so this
//! pass cannot find a violation that a test run would not — its value is
//! that it proves conformance *statically*, without spawning a kernel,
//! and that it keeps doing so for shapes only exercised by examples,
//! benches, and the shell. A violation here means a wiring template the
//! repo ships is unsound under its own discipline.

use eden_core::{Result, Uid, Value};
use eden_fs::write_from_sink;
use eden_transput::source::VecSource;
use eden_transput::transform::{Emitter, Identity, Transform};
use eden_transput::{
    ChannelPolicy, Discipline, FanInMode, PipelineSpec, TransformRegistry, WiringGraph,
};

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
/// `(name, spec)` pairs: kernel-free until someone calls `build`. A
/// redirected shape ends in the record file `file`.
pub(crate) fn shapes(file: Uid) -> Vec<(String, PipelineSpec)> {
    let mut entries: Vec<(String, PipelineSpec)> = Vec::new();

    // The plain chains every test, bench, and example builds.
    for (label, discipline) in [
        ("read-only/chain", Discipline::ReadOnly { read_ahead: 0 }),
        (
            "read-only/read-ahead",
            Discipline::ReadOnly { read_ahead: 8 },
        ),
        ("write-only/chain", Discipline::WriteOnly { push_ahead: 0 }),
        (
            "write-only/push-ahead",
            Discipline::WriteOnly { push_ahead: 4 },
        ),
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

    // The distribution dial (`@nodes`, E-series).
    entries.push((
        "read-only/distributed".to_owned(),
        PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_vec(items())
            .stage(Box::new(Identity))
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

    // The shell's redirected shapes (`> file NAME`): the pipeline ends in a
    // file Eject that exists already, which pulls from the tail or mints the
    // acceptor a write-only tail writes into.
    for (label, discipline) in [
        (
            "shell/redirected-read-only",
            Discipline::ReadOnly { read_ahead: 0 },
        ),
        (
            "shell/redirected-write-only",
            Discipline::WriteOnly { push_ahead: 0 },
        ),
        (
            "shell/redirected-conventional",
            Discipline::Conventional { buffer_capacity: 4 },
        ),
    ] {
        entries.push((
            label.to_owned(),
            PipelineSpec::new(discipline)
                .source_vec(items())
                .stage(Box::new(Identity))
                .batch(4)
                .sink_eject(write_from_sink(file)),
        ));
    }

    // The recovery plane's retained chains (crates/eden-transput/src/
    // recovery.rs): a two-filter chain, and the zero-transform chain, where
    // conventional is left with no pump, and the run pulls its source.
    let registry = TransformRegistry::new(&[("identity", || Box::new(Identity))]);
    for (label, discipline) in [
        ("recovery/read-only", Discipline::ReadOnly { read_ahead: 0 }),
        (
            "recovery/write-only",
            Discipline::WriteOnly { push_ahead: 0 },
        ),
        (
            "recovery/conventional",
            Discipline::Conventional { buffer_capacity: 0 },
        ),
    ] {
        let spec = || PipelineSpec::new(discipline).source_vec(items()).batch(2);
        let chain = spec().stage(Box::new(Identity)).stage(Box::new(Identity));
        entries.push((label.to_owned(), chain.retained(&registry)));
        entries.push((format!("{label}/empty"), spec().retained(&registry)));
    }

    entries
}

/// Every wiring shape the repo builds, as `(name, graph)` pairs. Names are
/// stable identifiers used in reports and tests.
pub fn catalog() -> Result<Vec<(String, WiringGraph)>> {
    // Rendering a graph asks the sink nothing: any UID stands for the file.
    shapes(Uid::fresh())
        .into_iter()
        .map(|(name, spec)| spec.graph().map(|g| (name, g)))
        .collect()
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
        for (name, graph) in catalog().unwrap() {
            assert_eq!(graph.check(), Vec::new(), "{name}");
        }
    }

    #[test]
    fn every_shape_spawns_the_graph_that_was_checked() {
        // One plan feeds `graph()` and `build()`: a node per Eject, no more
        // and no fewer — but for the file a redirected shape ends in, which
        // is a node and no Eject the pipeline spawned, and for the sink of a
        // retained chain the run pulls, which is the run itself. (No catalog
        // shape reads an Eject it did not spawn; such a source would be one
        // too.)
        let kernel = eden_kernel::Kernel::new();
        let file = kernel.spawn(Box::new(eden_fs::FileEject::new())).unwrap();
        for ((name, checked), (_, built)) in shapes(file).into_iter().zip(shapes(file)) {
            let nodes = checked.graph().unwrap().nodes.len();
            let run = built
                .build(&kernel)
                .and_then(|pipeline| pipeline.run(std::time::Duration::from_secs(20)))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let redirected = name.starts_with("shell/redirected");
            let pulled = ["recovery/read-only", "recovery/conventional/empty"];
            let unspawned = redirected || pulled.iter().any(|p| name.starts_with(p));
            assert_eq!(run.entities + usize::from(unspawned), nodes, "{name}");
            if name.starts_with("recovery/") {
                // A retained run reads its output whole from the chain's
                // tail, and reports the chain's every Eject.
                assert_eq!(run.output, items(), "{name}");
                assert_eq!(run.stages.len(), run.entities, "{name}");
            }
            if redirected {
                let held = kernel.invoke(file, "Length", Value::Unit).wait();
                assert_eq!(held, Ok(Value::Int(items().len() as i64)), "{name}");
            }
        }
        kernel.shutdown();
    }
}
