//! Record streams and the Map protocol (§6).
//!
//! "Nothing I have said about Eden transput constrains Eden streams to be
//! streams of bytes. Streams of arbitrary records fit into the protocol
//! just as well" — and an Eject "may wish to define a protocol which
//! supports the abstraction of a Map. ... it may support both protocols."
//!
//! A payroll file of employee records is stored in a `MapFileEject`
//! (random access + streaming), queried through a record pipeline, and a
//! report window (Figure 4's multi-source reader) watches two streams at
//! once.
//!
//! Run with: `cargo run --example record_streams`

use std::time::Duration;

use eden::core::op::ops;
use eden::core::Value;
use eden::filters::{FieldCmp, GroupAggregate, RenderRecords, SelectFields, WhereField};
use eden::fs::{mapfile, MapFileEject};
use eden::kernel::Kernel;
use eden::transput::collector::Collector;
use eden::transput::devices::{report_window, TickSource};
use eden::transput::{Discipline, PipelineSpec};
use eden::transput::{Input, InputPort, Output, Stage, StageConfig};

fn employee(name: &str, dept: &str, salary: i64) -> Value {
    Value::record([
        ("name", Value::str(name)),
        ("dept", Value::str(dept)),
        ("salary", Value::Int(salary)),
    ])
}

fn main() {
    let kernel = Kernel::new();

    // A map file: random access *and* streaming over the same records.
    let payroll = kernel
        .spawn(Box::new(MapFileEject::with_records(vec![
            employee("ada", "eng", 120),
            employee("grace", "eng", 130),
            employee("alan", "research", 110),
            employee("edsger", "research", 115),
            employee("barbara", "eng", 140),
        ])))
        .expect("spawn payroll");

    // Random access (the Map protocol): patch one record in place.
    println!("== Map protocol: random access ==");
    let before = kernel
        .invoke(payroll, "ReadAt", mapfile::read_at_arg(2, 1))
        .wait()
        .expect("ReadAt");
    println!(
        "record 2 before: {:?}",
        before.as_list().unwrap()[0].field("name").unwrap()
    );
    kernel
        .invoke(
            payroll,
            "WriteAt",
            mapfile::write_at_arg(2, vec![employee("alan", "eng", 125)]),
        )
        .wait()
        .expect("WriteAt");
    println!("record 2 patched: alan moves to eng at 125\n");

    // Streaming (the transput protocol): a query over the same Eject.
    println!("== record pipeline: eng salaries > 120, projected and rendered ==");
    let reader = kernel
        .invoke(payroll, ops::OPEN, Value::Unit)
        .wait()
        .expect("open stream view")
        .as_uid()
        .expect("capability");
    let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
        .source_eject(reader)
        .stage(Box::new(WhereField::new(
            "dept",
            FieldCmp::Eq,
            Value::str("eng"),
        )))
        .stage(Box::new(WhereField::new(
            "salary",
            FieldCmp::Gt,
            Value::Int(120),
        )))
        .stage(Box::new(SelectFields::new(["name", "salary"])))
        .stage(Box::new(RenderRecords))
        .build(&kernel)
        .expect("build query")
        .run(Duration::from_secs(10))
        .expect("run query");
    for line in &run.output {
        println!("{}", line.as_str().unwrap_or("?"));
    }

    println!("\n== aggregation: headcount and payroll by department ==");
    let reader = kernel
        .invoke(payroll, ops::OPEN, Value::Unit)
        .wait()
        .expect("open second view")
        .as_uid()
        .expect("capability");
    let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
        .source_eject(reader)
        .stage(Box::new(GroupAggregate::new("dept", Some("salary"))))
        .stage(Box::new(RenderRecords))
        .build(&kernel)
        .expect("build aggregate")
        .run(Duration::from_secs(10))
        .expect("run aggregate");
    for line in &run.output {
        println!("{}", line.as_str().unwrap_or("?"));
    }

    // The multi-source report window of Figure 4: one device, two streams.
    println!("\n== report window: two sources, one device (Figure 4) ==");
    let clock = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(TickSource::new(3))),
            Output::Passive,
            StageConfig::default(),
        )))
        .expect("spawn clock");
    let reader = kernel
        .invoke(payroll, ops::OPEN, Value::Unit)
        .wait()
        .expect("open third view")
        .as_uid()
        .expect("capability");
    let window_output = Collector::new();
    kernel
        .spawn(Box::new(report_window(
            vec![
                ("clock".into(), InputPort::primary(clock)),
                ("payroll".into(), InputPort::primary(reader)),
            ],
            4,
            window_output.clone(),
        )))
        .expect("spawn window");
    let mut lines: Vec<String> = window_output
        .wait_done(Duration::from_secs(10))
        .expect("window drains")
        .iter()
        .map(|r| {
            format!(
                "[{}] {:?}",
                r.field("from").unwrap().as_str().unwrap_or("?"),
                r.field("item").unwrap()
            )
        })
        .collect();
    lines.sort();
    for line in lines {
        println!("{line}");
    }

    kernel.shutdown();
}
