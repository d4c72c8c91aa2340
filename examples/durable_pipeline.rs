//! Crash-recovering pipelines: §1's checkpoint contract, live.
//!
//! "The data in a passive representation should be sufficient to enable
//! the Eject they represent to re-construct itself in a consistent state"
//! — and "if a passive eject is sent an invocation, the Eden kernel will
//! activate it."
//!
//! A recoverable read cursor feeds a recoverable line-numbering filter. We
//! fail-stop both Ejects after *every* transfer; the stream completes
//! anyway, with no loss, no duplicates, and unbroken numbering — each
//! crash is healed by reactivation-on-invocation from the checkpoint the
//! stage wrote before it acknowledged, and the reader's position says
//! where to carry on.
//!
//! Run with: `cargo run --example durable_pipeline`

use eden::core::op::ops;
use eden::core::Value;
use eden::filters::LineNumber;
use eden::fs::{register_fs_types, FileEject};
use eden::kernel::{render_events, Kernel, KernelConfig, ObsConfig};
use eden::transput::protocol::{Batch, TransferRequest};
use eden::transput::recovery::{install_recovery, recoverable_filter, TransformRegistry};

fn main() {
    let kernel = Kernel::with_config(KernelConfig {
        observability: ObsConfig::full(),
        ..Default::default()
    });
    register_fs_types(&kernel);
    let registry = TransformRegistry::new(&[("line-number", || Box::new(LineNumber::new()))]);
    install_recovery(&kernel, &registry);

    let file = kernel
        .spawn(Box::new(FileEject::from_lines(
            (1..=8).map(|i| format!("verse {i} of the ballad")),
        )))
        .expect("spawn file");
    let cursor = kernel
        .invoke(file, "OpenDurable", Value::Unit).wait()
        .expect("durable cursor")
        .as_uid()
        .expect("capability");
    let filter = kernel
        .spawn(recoverable_filter("line-number", &registry, cursor, 2).expect("filter"))
        .expect("spawn filter");

    println!("== reading through crash after crash ==\n");
    let mut crashes = 0;
    let mut read = 0;
    loop {
        let req = TransferRequest::primary(2).at(read);
        let batch = Batch::from_value(
            kernel
                .invoke(filter, ops::TRANSFER, req.to_value()).wait()
                .expect("transfer"),
        )
        .expect("batch");
        for line in &batch.items {
            println!("{}", line.as_str().unwrap_or("?"));
        }
        read += batch.items.len() as u64;
        if batch.end {
            break;
        }
        // Murder both stages. The next Transfer resurrects them.
        kernel.crash(filter).expect("crash filter");
        kernel.crash(cursor).expect("crash cursor");
        crashes += 2;
        println!("  ... both Ejects crashed (total {crashes}); continuing ...");
    }

    let snapshot = kernel.metrics().snapshot();
    println!(
        "\n{} crashes survived; {} activations total ({} of them reactivations from checkpoints)",
        snapshot.crashes,
        snapshot.activations,
        snapshot.crashes // Every crash here led to exactly one reactivation.
    );
    println!(
        "stable store holds {} passive representation(s), {} bytes",
        kernel.stable_store().len(),
        kernel.stable_store().total_bytes()
    );
    println!("\nlast few kernel events:");
    for event in render_events(&kernel.spans(), &kernel.lifecycle().0).iter().rev().take(6).rev() {
        println!("  {event}");
    }
    kernel.shutdown();
}
