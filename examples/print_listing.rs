//! The paper's motivating example (§4): printing a paginated file.
//!
//! "A file could be printed simply by requesting the printer server to
//! read from the file. If a paginated listing were required, the printer
//! server would be requested to read from the paginator, and the
//! paginator to read from the file."
//!
//! The printer server here is a sink Eject that pumps reads; the file is a
//! file Eject found by name in a directory Eject; the paginator is a pull
//! filter. No Write invocation moves the document anywhere.
//!
//! Run with: `cargo run --example print_listing`

use std::time::Duration;

use eden::core::op::ops;
use eden::core::Value;
use eden::filters::Paginator;
use eden::fs::{add_entry, lookup, register_fs_types, DirectoryEject, FileEject};
use eden::kernel::Kernel;
use eden::transput::collector::Collector;
use eden::transput::{Input, Output, Stage, StageConfig};

fn main() {
    let kernel = Kernel::new();
    register_fs_types(&kernel);

    // A home directory with a document in it.
    let home = kernel
        .spawn(Box::new(DirectoryEject::new()))
        .expect("spawn directory");
    let poem = FileEject::from_lines([
        "TIGER, tiger, burning bright",
        "In the forests of the night,",
        "What immortal hand or eye",
        "Could frame thy fearful symmetry?",
        "",
        "In what distant deeps or skies",
        "Burnt the fire of thine eyes?",
        "On what wings dare he aspire?",
        "What the hand dare seize the fire?",
    ]);
    let poem_uid = kernel.spawn(Box::new(poem)).expect("spawn file");
    add_entry(&kernel, home, "tiger.txt", poem_uid).expect("file into directory");

    // Find the document by name — UIDs, not path strings, do the wiring.
    let found = lookup(&kernel, home, "tiger.txt").expect("lookup");
    let reader = kernel
        .invoke(found, ops::OPEN, Value::Unit)
        .wait()
        .expect("open for reading")
        .as_uid()
        .expect("stream capability");

    // The paginator reads from the file...
    let paginator = kernel
        .spawn(Box::new(Stage::filter(
            Input::pull(reader),
            Box::new(Paginator::new("tiger.txt", 4)),
            Output::Passive,
            StageConfig::default(),
        )))
        .expect("spawn paginator");

    // ...and the printer server reads from the paginator. Spawning the
    // printer starts the flow: it is the pump.
    let printed = Collector::new();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(paginator),
            Output::local(printed.clone()),
            StageConfig::batch(4),
        )))
        .expect("spawn printer server");

    let pages = printed
        .wait_done(Duration::from_secs(10))
        .expect("printing completes");
    println!("== printer output ==");
    for line in &pages {
        let text = line.as_str().unwrap_or("");
        if text == eden::filters::FORM_FEED {
            println!("^L");
        } else {
            println!("{text}");
        }
    }

    // The directory listing is itself a stream (§2): print it the same way.
    kernel
        .invoke(home, ops::LIST, Value::Unit)
        .wait()
        .expect("prepare listing");
    let listing = Collector::new();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(home),
            Output::local(listing.clone()),
            StageConfig::batch(8),
        )))
        .expect("spawn listing reader");
    println!("\n== directory listing (also read as a stream) ==");
    for line in listing.wait_done(Duration::from_secs(10)).expect("listing") {
        println!("{}", line.as_str().unwrap_or("?"));
    }

    kernel.shutdown();
}
