//! Experiments E4–E6: the fan-in/fan-out duality, report streams
//! (Figures 3 and 4), and capability-channel security (§5).

use std::time::Duration;

use eden_core::op::ops;
use eden_core::{EdenError, Uid, Value};
use eden_filters::SpellCheck;
use eden_kernel::Kernel;
use eden_transput::collector::Collector;
use eden_transput::protocol::{Batch, ChannelId, GetChannelRequest, TransferRequest, REPORT_NAME};
use eden_transput::source::VecSource;
use eden_transput::transform::{Identity, Transform};
use eden_transput::{ChannelPolicy, Discipline, FanInMode, InputPort, OutputPort, OutputWiring};
use eden_transput::{Input, Output, Stage, StageConfig};

use crate::runner::run_pipeline;
use crate::table::Table;
use crate::workloads;

const WAIT: Duration = Duration::from_secs(60);

fn int_source(kernel: &Kernel, range: std::ops::Range<i64>) -> Uid {
    kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::new(range.map(Value::Int).collect()))),
            Output::Passive,
            StageConfig::default(),
        )))
        .expect("spawn source")
}

/// A read-only filter over `source`'s primary channel.
fn pull_filter(kernel: &Kernel, source: Uid, transform: Box<dyn Transform>) -> Uid {
    let config = StageConfig::default();
    let filter = Stage::filter(Input::pull(source), transform, Output::Passive, config);
    kernel.spawn(Box::new(filter)).expect("filter")
}

/// Attach a pumping sink to `input`, eight records a read.
fn sink(kernel: &Kernel, input: Input, collector: &Collector) {
    let sink = Stage::new(
        input,
        Output::local(collector.clone()),
        StageConfig::batch(8),
    );
    kernel.spawn(Box::new(sink)).expect("sink");
}

/// A source over `range` that pumps into `to` once `Start`ed.
fn pump(kernel: &Kernel, range: std::ops::Range<i64>, to: Uid) -> Uid {
    let supply = VecSource::new(range.map(Value::Int).collect());
    let pump = Stage::new(
        Input::Local(Box::new(supply)),
        Output::push(to),
        StageConfig::batch(8),
    );
    kernel.spawn(Box::new(pump)).expect("push source")
}

fn acceptor(kernel: &Kernel, collector: &Collector) -> Uid {
    let output = Output::local(collector.clone());
    let acceptor = Stage::new(Input::Passive, output, StageConfig::default());
    kernel.spawn(Box::new(acceptor)).expect("acceptor")
}

/// E4 — the duality table of §5, measured.
pub(crate) fn e4() -> Vec<Table> {
    let mut t = Table::new(
        "E4: fan-in / fan-out by discipline (m = 4 peers, 40 records each)",
        &[
            "configuration",
            "outcome",
            "records per peer",
            "invocations",
        ],
    );
    let kernel = Kernel::new();
    let m = 4usize;
    let per = 40i64;

    // Read-only fan-in: one filter, m input UIDs.
    {
        let before = kernel.metrics().snapshot();
        let inputs: Vec<InputPort> = (0..m)
            .map(|i| {
                InputPort::primary(int_source(
                    &kernel,
                    (i as i64 * 100)..(i as i64 * 100 + per),
                ))
            })
            .collect();
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::ports(inputs, FanInMode::RoundRobin),
                Box::new(Identity),
                Output::Passive,
                StageConfig::batch(8),
            )))
            .expect("filter");
        let c = Collector::new();
        sink(&kernel, Input::pull(filter), &c);
        let merged = c.wait_done(WAIT).expect("merge completes");
        let delta = kernel.metrics().snapshot().since(&before);
        assert_eq!(merged.len(), m * per as usize);
        t.row([
            "read-only fan-IN (m sources, 1 filter)".to_string(),
            "merged, ordered round-robin".to_string(),
            format!("{} total", merged.len()),
            delta.invocations.to_string(),
        ]);
    }

    // Read-only fan-out attempt without channels: the stream splits.
    {
        let source = int_source(&kernel, 0..(per * m as i64));
        let filter = pull_filter(&kernel, source, Box::new(Identity));
        let collectors: Vec<Collector> = (0..m).map(|_| Collector::new()).collect();
        for c in &collectors {
            sink(&kernel, Input::pull(filter), c);
        }
        let counts: Vec<usize> = collectors
            .iter()
            .map(|c| c.wait_done(WAIT).expect("done").len())
            .collect();
        let total: usize = counts.iter().sum();
        assert_eq!(total, (per * m as i64) as usize);
        t.row([
            "read-only fan-OUT, no channels (m sinks, 1 channel)".to_string(),
            "SPLIT — each record reaches exactly one sink (§5)".to_string(),
            format!("{counts:?}"),
            "-".to_string(),
        ]);
    }

    // Read-only fan-out with channel identifiers (Tee).
    {
        let source = int_source(&kernel, 0..per);
        let filter = pull_filter(&kernel, source, Box::new(eden_filters::Tee));
        let copy_id = ChannelId::try_from(
            &kernel
                .invoke(
                    filter,
                    ops::GET_CHANNEL,
                    GetChannelRequest {
                        name: eden_filters::COPY_NAME.to_owned(),
                    }
                    .to_value(),
                )
                .wait()
                .expect("get channel"),
        )
        .expect("channel id");
        let main = Collector::new();
        let copy = Collector::new();
        let copy_port = InputPort {
            uid: filter,
            channel: copy_id,
        };
        sink(
            &kernel,
            Input::ports(vec![copy_port], FanInMode::Concatenate),
            &copy,
        );
        sink(&kernel, Input::pull(filter), &main);
        let a = main.wait_done(WAIT).expect("main").len();
        let b = copy.wait_done(WAIT).expect("copy").len();
        assert_eq!(a, b);
        t.row([
            "read-only fan-OUT via channel ids (Figure 4 machinery)".to_string(),
            "DUPLICATED — every sink sees the full stream".to_string(),
            format!("[{a}, {b}]"),
            "-".to_string(),
        ]);
    }

    // Write-only fan-out: m destinations on one channel.
    {
        let before = kernel.metrics().snapshot();
        let collectors: Vec<Collector> = (0..m).map(|_| Collector::new()).collect();
        let mut wiring = OutputWiring::default();
        for c in &collectors {
            let sink = acceptor(&kernel, c);
            wiring.add(
                eden_transput::protocol::OUTPUT_NAME,
                OutputPort::primary(sink),
            );
        }
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::Passive,
                Box::new(Identity),
                Output::Active(wiring),
                StageConfig::default(),
            )))
            .expect("push filter");
        let source = pump(&kernel, 0..per, filter);
        kernel
            .invoke(source, "Start", Value::Unit)
            .wait()
            .expect("start");
        let counts: Vec<usize> = collectors
            .iter()
            .map(|c| c.wait_done(WAIT).expect("done").len())
            .collect();
        let delta = kernel.metrics().snapshot().since(&before);
        assert!(counts.iter().all(|&c| c == per as usize));
        t.row([
            "write-only fan-OUT (1 filter, m sinks)".to_string(),
            "DUPLICATED — natural in the dual (§5)".to_string(),
            format!("{counts:?}"),
            delta.invocations.to_string(),
        ]);
    }

    // Write-only fan-in: indistinguishable writers.
    {
        let c = Collector::new();
        let sink = acceptor(&kernel, &c);
        let mut pendings = Vec::new();
        for i in 0..m as i64 {
            let src = pump(&kernel, (i * 100)..(i * 100 + per), sink);
            pendings.push(kernel.invoke(src, "Start", Value::Unit));
        }
        let got = c.wait_done(WAIT).expect("done");
        for p in pendings {
            let _ = p.wait_timeout(WAIT);
        }
        t.row([
            "write-only fan-IN attempt (m writers, 1 acceptor)".to_string(),
            "UNATTRIBUTABLE MERGE — first end closes all (§5)".to_string(),
            format!("{} arrived before first end", got.len()),
            "-".to_string(),
        ]);
    }
    kernel.shutdown();
    vec![t]
}

/// E5 — Figure 3 (write-only + pushed reports) vs Figure 4 (read-only +
/// channel identifiers), on the same spell-checking workload.
pub(crate) fn e5() -> Vec<Table> {
    let mut t = Table::new(
        "E5: report streams — Figure 3 vs Figure 4 (500 prose lines, 1 spell-check filter)",
        &[
            "configuration",
            "entities",
            "invocations",
            "deferred replies",
            "report lines",
        ],
    );
    let kernel = Kernel::new();
    let configs: [(&str, Discipline, ChannelPolicy); 4] = [
        (
            "Figure 3: write-only, report pushed to extra acceptor",
            Discipline::WriteOnly { push_ahead: 0 },
            ChannelPolicy::Integer,
        ),
        (
            "Figure 4: read-only, Read(Report) via integer channel id",
            Discipline::ReadOnly { read_ahead: 0 },
            ChannelPolicy::Integer,
        ),
        (
            "Figure 4 + capability channel identifiers",
            Discipline::ReadOnly { read_ahead: 0 },
            ChannelPolicy::Capability,
        ),
        (
            "conventional: report via its own pipe + reader",
            Discipline::Conventional {
                buffer_capacity: 16,
            },
            ChannelPolicy::Integer,
        ),
    ];
    let mut report_lines: Vec<Vec<Value>> = Vec::new();
    for (label, discipline, policy) in configs {
        let run = run_pipeline(
            &kernel,
            discipline,
            workloads::prose(500, 5, 77),
            vec![Box::new(SpellCheck::new(workloads::dictionary()))],
            8,
            policy,
            &[(0, REPORT_NAME)],
        );
        let report = run.report(0, REPORT_NAME).unwrap_or(&[]).to_vec();
        t.row([
            label.to_string(),
            run.entities.to_string(),
            run.metrics.invocations.to_string(),
            run.metrics.deferred_replies.to_string(),
            report.len().to_string(),
        ]);
        report_lines.push(report);
    }
    kernel.shutdown();
    // Every configuration reports the same misspellings.
    for pair in report_lines.windows(2) {
        assert_eq!(pair[0], pair[1], "report streams must agree across figures");
    }
    t.note("all four configurations produce byte-identical report windows.");
    t.note("conventional needs extra passive-buffer Ejects; Figure 4 needs none.");
    vec![t]
}

/// E6 — capability channels: who can read what, and at what setup cost.
pub(crate) fn e6() -> Vec<Table> {
    let mut t = Table::new(
        "E6: channel access control (§5)",
        &["policy", "access attempt", "result"],
    );
    let kernel = Kernel::new();
    for policy in [ChannelPolicy::Integer, ChannelPolicy::Capability] {
        let source = int_source(&kernel, 0..10);
        let filter = kernel
            .spawn(Box::new(Stage::filter(
                Input::pull(source),
                Box::new(SpellCheck::new(["known"])),
                Output::Passive,
                StageConfig {
                    policy,
                    ..Default::default()
                },
            )))
            .expect("filter");
        let policy_name = match policy {
            ChannelPolicy::Integer => "integer",
            ChannelPolicy::Capability => "capability",
        };
        let attempt = |channel: ChannelId| -> String {
            match kernel
                .invoke(
                    filter,
                    ops::TRANSFER,
                    TransferRequest {
                        channel,
                        max: 4,
                        pos: None,
                    }
                    .to_value(),
                )
                .wait()
                .and_then(Batch::from_value)
            {
                Ok(_) => "GRANTED".to_string(),
                Err(EdenError::NoSuchChannel(_)) => "refused (no such channel)".to_string(),
                Err(EdenError::NotAuthorized(_)) => "refused (not authorized)".to_string(),
                Err(e) => format!("refused ({e})"),
            }
        };
        t.row([
            policy_name.to_string(),
            "guessed integer 0".into(),
            attempt(ChannelId::Number(0)),
        ]);
        t.row([
            policy_name.to_string(),
            "guessed integer 1 (the report stream)".into(),
            attempt(ChannelId::Number(1)),
        ]);
        t.row([
            policy_name.to_string(),
            "forged capability UID".into(),
            attempt(ChannelId::Cap(Uid::fresh())),
        ]);
        // The honest connection protocol: obtain both identifiers via
        // GetChannel, drain the primary (report data only materialises
        // under primary demand — lazy transput), then read the report.
        let get = |name: &str| -> ChannelId {
            kernel
                .invoke(
                    filter,
                    ops::GET_CHANNEL,
                    GetChannelRequest {
                        name: name.to_owned(),
                    }
                    .to_value(),
                )
                .wait()
                .and_then(|v| ChannelId::try_from(&v))
                .expect("GetChannel")
        };
        let output = get(eden_transput::protocol::OUTPUT_NAME);
        loop {
            let batch = kernel
                .invoke(
                    filter,
                    ops::TRANSFER,
                    TransferRequest {
                        channel: output,
                        max: 16,
                        pos: None,
                    }
                    .to_value(),
                )
                .wait()
                .and_then(Batch::from_value)
                .expect("drain primary");
            if batch.end {
                break;
            }
        }
        t.row([
            policy_name.to_string(),
            "identifier granted via GetChannel".into(),
            attempt(get(REPORT_NAME)),
        ]);
    }
    kernel.shutdown();
    t.note("setup cost of the capability scheme: one GetChannel invocation per (reader, channel) pair.");
    vec![t]
}
