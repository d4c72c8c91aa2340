//! Experiments E1–E3, E7, E8: the pipeline-cost claims of §4.

use eden_core::{CostModel, Value};
use eden_kernel::Kernel;
use eden_transput::source::{CountingSource, VecSource};
use eden_transput::transform::Identity;
use eden_transput::{Discipline, Input, Output, Stage, StageConfig};

use crate::runner::{fmt_f, fmt_krate, run_identity, DEADLINE};
use crate::table::Table;
use crate::workloads;

/// E1 — Figures 1 and 2, quantified: invocations per datum and entity
/// counts versus pipeline depth, for all three disciplines.
pub fn e1() -> Vec<Table> {
    let items: i64 = 200;
    let mut inv = Table::new(
        "E1: invocations per datum vs pipeline depth (batch=1)",
        &[
            "n (filters)",
            "read-only",
            "paper n+1",
            "write-only",
            "conventional",
            "paper 2n+2",
        ],
    );
    let mut ent = Table::new(
        "E1b: entities (Ejects) vs pipeline depth",
        &[
            "n (filters)",
            "read-only",
            "paper n+2",
            "write-only",
            "conventional",
            "paper 2n+3",
        ],
    );
    let kernel = Kernel::new();
    for n in [0usize, 1, 2, 4, 8] {
        let ro = run_identity(
            &kernel,
            Discipline::ReadOnly { read_ahead: 0 },
            workloads::ints(items),
            n,
            1,
        );
        let wo = run_identity(
            &kernel,
            Discipline::WriteOnly { push_ahead: 0 },
            workloads::ints(items),
            n,
            1,
        );
        let conv = run_identity(
            &kernel,
            Discipline::Conventional { buffer_capacity: 16 },
            workloads::ints(items),
            n,
            1,
        );
        inv.row([
            n.to_string(),
            fmt_f(ro.invocations_per_record()),
            (n + 1).to_string(),
            fmt_f(wo.invocations_per_record()),
            fmt_f(conv.invocations_per_record()),
            (2 * n + 2).to_string(),
        ]);
        ent.row([
            n.to_string(),
            ro.entities.to_string(),
            (n + 2).to_string(),
            wo.entities.to_string(),
            conv.entities.to_string(),
            (2 * n + 3).to_string(),
        ]);
    }
    kernel.shutdown();
    inv.note("write-only includes its single Start control invocation (+1/D per datum).");
    inv.note("conventional includes end-of-stream drain transfers (bounded, not per-datum).");
    vec![inv, ent]
}

/// E2 — "considerable savings of communications overhead ... with long
/// pipelines": throughput versus depth.
pub fn e2() -> Vec<Table> {
    let items: i64 = 3000;
    let batch = 32;
    let mut t = Table::new(
        "E2: throughput (krec/s) vs pipeline depth (3000 records, batch=32)",
        &[
            "n (filters)",
            "RO lazy",
            "RO ra=64",
            "WO sync",
            "WO pa=32",
            "conventional",
        ],
    );
    let kernel = Kernel::new();
    for n in [1usize, 2, 4, 8] {
        let mut cells = vec![n.to_string()];
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::ReadOnly { read_ahead: 64 },
            Discipline::WriteOnly { push_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 32 },
            Discipline::Conventional { buffer_capacity: 64 },
        ] {
            let run = run_identity(&kernel, discipline, workloads::ints(items), n, batch);
            assert_eq!(run.records_out, items as u64);
            cells.push(fmt_krate(run.records_out, run.wall));
        }
        t.row(cells);
    }
    kernel.shutdown();
    t.note("expected shape: asymmetric disciplines degrade more slowly with depth than conventional.");

    // E2b: distributed placement — the paper's Ejects lived on several
    // VAXen; remote invocations pay an Ethernet surcharge in the model.
    let mut dist = Table::new(
        "E2b: distributed placement (depth 4, 1000 records, batch=8, eden-1983 cost model)",
        &[
            "nodes",
            "discipline",
            "invocations",
            "remote",
            "modeled ms",
        ],
    );
    let model = CostModel::eden_1983();
    let kernel = Kernel::new();
    for nodes in [1u16, 2, 6] {
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::Conventional { buffer_capacity: 16 },
        ] {
            let mut builder =
                eden_transput::PipelineSpec::new(discipline)
                    .source_vec(workloads::ints(1000))
                    .batch(8)
                    .over_nodes(nodes);
            for _ in 0..4 {
                builder = builder.stage(Box::new(Identity));
            }
            let run = builder
                .build(&kernel)
                .expect("build")
                .run(DEADLINE)
                .expect("run");
            dist.row([
                nodes.to_string(),
                discipline.label().to_string(),
                run.metrics.invocations.to_string(),
                run.metrics.remote_invocations.to_string(),
                fmt_f(model.modeled_ns(&run.metrics) / 1e6),
            ]);
        }
    }
    kernel.shutdown();
    dist.note("with round-robin placement every hop is remote; read-only halves both the invocations and the Ethernet crossings.");

    // E2c: the same comparison with *real* injected latency — when
    // invocation is expensive in wall-clock terms (the paper's regime),
    // halving the invocations halves the time.
    let mut lat = Table::new(
        "E2c: wall clock with 200us injected invocation latency (depth 4, 400 records)",
        &["discipline", "invocations", "wall ms", "krec/s"],
    );
    let slow = Kernel::with_config(eden_kernel::KernelConfig {
        invocation_latency: Some(std::time::Duration::from_micros(200)),
        ..Default::default()
    });
    for (label, discipline, window) in [
        ("read-only (lazy)", Discipline::ReadOnly { read_ahead: 0 }, 1usize),
        ("read-only ra=32", Discipline::ReadOnly { read_ahead: 32 }, 1),
        ("write-only w=1", Discipline::WriteOnly { push_ahead: 0 }, 1),
        ("write-only w=8", Discipline::WriteOnly { push_ahead: 8 }, 8),
        (
            "conventional",
            Discipline::Conventional { buffer_capacity: 16 },
            1,
        ),
    ] {
        let mut builder = eden_transput::PipelineSpec::new(discipline)
            .source_vec(workloads::ints(400))
            .batch(8)
            .write_window(window);
        for _ in 0..4 {
            builder = builder.stage(Box::new(Identity));
        }
        let run = builder
            .build(&slow)
            .expect("build")
            .run(DEADLINE)
            .expect("run");
        lat.row([
            label.to_string(),
            run.metrics.invocations.to_string(),
            fmt_f(run.wall.as_secs_f64() * 1000.0),
            fmt_krate(run.records_out, run.wall),
        ]);
    }
    slow.shutdown();
    lat.note("the table IS §4's concurrency paragraph: fully-lazy read-only loses to conventional (pipes overlap latency per stage), but with 'buffer-up some output' (read-ahead / write windows) the asymmetric disciplines overlap latency too and their 2x invocation saving becomes a ~2x wall-clock win.");
    vec![t, dist, lat]
}

/// E3 — laziness and bounded anticipation (§4).
pub fn e3() -> Vec<Table> {
    let mut lazy = Table::new(
        "E3a: records pulled from the source BEFORE any sink demand",
        &["filter read_ahead", "records pre-pulled", "bound (ra+batch)"],
    );
    let kernel = Kernel::new();
    for read_ahead in [0usize, 8, 32, 128] {
        let (counting, pulled) =
            CountingSource::new(VecSource::new((0..10_000).map(Value::Int).collect()));
        let source = kernel
            .spawn(Box::new(Stage::new(
                Input::Local(Box::new(counting)),
                Output::Passive,
                StageConfig::default(),
            )))
            .expect("spawn source");
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::pull(source),
                Box::new(Identity),
                Output::Passive,
                StageConfig {
                    depth: read_ahead,
                    batch: 8,
                    ..Default::default()
                },
            )))
            .expect("spawn filter");
        // Give any prefetch worker time to do all it is ever going to do.
        std::thread::sleep(std::time::Duration::from_millis(150));
        let pre = pulled.load(std::sync::atomic::Ordering::Relaxed);
        lazy.row([
            read_ahead.to_string(),
            pre.to_string(),
            (read_ahead + 8).to_string(),
        ]);
        assert!(pre <= (read_ahead + 8) as u64, "anticipation must be bounded");
        // Tear down.
        let _ = kernel.invoke(filter, eden_core::op::ops::DEACTIVATE, Value::Unit);
        let _ = kernel.invoke(source, eden_core::op::ops::DEACTIVATE, Value::Unit);
    }
    lazy.note("read_ahead=0 reproduces 'no data flows until a sink is connected'.");

    let mut thr = Table::new(
        "E3b: throughput (krec/s) vs read-ahead credit k (depth 4, 3000 records)",
        &["k", "krec/s", "internal msgs"],
    );
    for k in [0usize, 4, 16, 64, 256] {
        let run = run_identity(
            &kernel,
            Discipline::ReadOnly { read_ahead: k },
            workloads::ints(3000),
            4,
            16,
        );
        thr.row([
            k.to_string(),
            fmt_krate(run.records_out, run.wall),
            run.metrics.internal_messages.to_string(),
        ]);
    }
    kernel.shutdown();
    thr.note("k=0 is fully lazy (serial demand); k>0 buys concurrency with intra-Eject messages.");
    vec![lazy, thr]
}

/// E7 — batching: "each Eject in a pipeline should read some input and
/// buffer-up some output" as a records-per-Transfer sweep.
pub fn e7() -> Vec<Table> {
    let items: i64 = 4000;
    let mut t = Table::new(
        "E7: batch size sweep (read-only, depth 2, 4000 records)",
        &["batch", "invocations", "krec/s", "bytes moved"],
    );
    let kernel = Kernel::new();
    for batch in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let run = run_identity(
            &kernel,
            Discipline::ReadOnly { read_ahead: 0 },
            workloads::sized_lines(items as usize, 32),
            2,
            batch,
        );
        t.row([
            batch.to_string(),
            run.metrics.invocations.to_string(),
            fmt_krate(run.records_out, run.wall),
            run.metrics.bytes_total().to_string(),
        ]);
    }
    kernel.shutdown();
    t.note("invocations fall as 1/batch; bytes moved stay constant.");
    vec![t]
}

/// E8 — "the cost of an invocation must inevitably be higher than that of
/// a system call": sweep the invocation : internal-message cost ratio and
/// watch the asymmetric discipline's advantage appear.
pub fn e8() -> Vec<Table> {
    let items: i64 = 2000;
    let depth = 4;
    let batch = 8;
    let kernel = Kernel::new();
    // Measure the event mix once per discipline. The read-ahead variant
    // is the paper's recommended configuration: fewer invocations, more
    // intra-Eject communication.
    let ro = run_identity(
        &kernel,
        Discipline::ReadOnly { read_ahead: 32 },
        workloads::ints(items),
        depth,
        batch,
    );
    let wo = run_identity(
        &kernel,
        Discipline::WriteOnly { push_ahead: 32 },
        workloads::ints(items),
        depth,
        batch,
    );
    let conv = run_identity(
        &kernel,
        Discipline::Conventional { buffer_capacity: 32 },
        workloads::ints(items),
        depth,
        batch,
    );
    kernel.shutdown();
    let mut t = Table::new(
        "E8: modeled cost vs invocation:internal-IPC cost ratio (depth 4)",
        &[
            "ratio",
            "RO modeled ms",
            "WO modeled ms",
            "conv modeled ms",
            "conv/RO",
        ],
    );
    t.note(format!(
        "event mix — RO: {} inv + {} internal; WO: {} inv + {} internal; conv: {} inv + {} internal",
        ro.metrics.invocations,
        ro.metrics.internal_messages,
        wo.metrics.invocations,
        wo.metrics.internal_messages,
        conv.metrics.invocations,
        conv.metrics.internal_messages,
    ));
    for ratio in [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
        let model = CostModel::with_ratio(ratio);
        let ro_ms = model.modeled_ns(&ro.metrics) / 1e6;
        let wo_ms = model.modeled_ns(&wo.metrics) / 1e6;
        let conv_ms = model.modeled_ns(&conv.metrics) / 1e6;
        t.row([
            fmt_f(ratio),
            fmt_f(ro_ms),
            fmt_f(wo_ms),
            fmt_f(conv_ms),
            fmt_f(conv_ms / ro_ms),
        ]);
    }
    t.note("as the ratio grows the advantage approaches the paper's (2n+2)/(n+1) = 2x for n=4 → 1.67x...2x.");
    vec![t]
}
