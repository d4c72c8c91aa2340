//! The contract every stream endpoint keeps, whatever it is a constructor
//! of: a passive output hands out the identifiers of the channels it
//! declared and serves only those, and a passive input takes no record
//! after the end of its stream. `Stage` keeps it by construction, and every
//! endpoint here — `stdio`'s programs, `eden-fs`'s readers and listing, the
//! report window — is a `Stage`.

use std::sync::mpsc;
use std::time::Duration;

use eden::core::op::ops;
use eden::core::{EdenError, Uid, Value};
use eden::fs::{add_entry, DirectoryEject, FileEject, MemFs, UnixFsEject};
use eden::kernel::Kernel;
use eden::transput::collector::Collector;
use eden::transput::devices::report_window;
use eden::transput::protocol::{ChannelId, GetChannelRequest, OUTPUT_NAME};
use eden::transput::recovery::{
    install_recovery, recoverable_source, run_recoverable_pipeline, RecoveryDiscipline,
    TransformRegistry, READ_ALL,
};
use eden::transput::source::VecSource;
use eden::transput::stdio::{program_sink, program_source, TransputReader, TransputWriter};
use eden::transput::{
    Batch, Input, InputPort, Output, Stage, StageConfig, TransferRequest, WriteRequest,
};

fn ints(n: i64) -> Vec<Value> {
    (0..n).map(Value::Int).collect()
}

/// A constructor for each Eject that answers `Transfer`, over the records
/// 0 and 1 (the filing systems hold them as lines, the directory as the
/// names of its two entries).
fn readers(kernel: &Kernel) -> Vec<(&'static str, Uid)> {
    let spawn = |behavior| kernel.spawn(behavior).unwrap();
    let opened = |from: Uid, op: &'static str, arg: Value| {
        let reader = kernel.invoke(from, op, arg).wait().unwrap();
        reader.as_uid().unwrap()
    };
    let supply = Input::Local(Box::new(VecSource::new(ints(2))));
    let volatile = Stage::new(supply, Output::Passive, StageConfig::default());
    let write_both = |out: TransputWriter| {
        for i in 0..2 {
            out.write(Value::Int(i)).unwrap();
        }
    };
    let program = program_source(write_both, 0);
    let file = spawn(Box::new(FileEject::from_lines(["0", "1"])));
    let fs = MemFs::with_files([("two", "0\n1\n")]);
    let unixfs = spawn(Box::new(UnixFsEject::new(fs)));
    let directory = spawn(Box::new(DirectoryEject::new()));
    for name in ["0", "1"] {
        add_entry(kernel, directory, name, Uid::fresh()).unwrap();
    }
    kernel
        .invoke(directory, ops::LIST, Value::Unit)
        .wait()
        .unwrap();
    vec![
        ("volatile source", spawn(Box::new(volatile))),
        ("recoverable_source", spawn(recoverable_source(ints(2)))),
        ("program_source", spawn(Box::new(program))),
        ("FileEject Open", opened(file, ops::OPEN, Value::Unit)),
        (
            "UnixFsEject NewStream",
            opened(unixfs, ops::NEW_STREAM, eden::fs::new_stream_arg("two")),
        ),
        ("DirectoryEject List", directory),
    ]
}

/// A constructor for each Eject that answers `Write`, the records 0 and 1
/// written to it and its stream ended, with how to read what it took.
type Landed = Box<dyn Fn(&Kernel) -> Vec<Value>>;

fn writers(kernel: &Kernel) -> Vec<(&'static str, Uid, Landed)> {
    let write_all = |to: Uid| {
        let both = WriteRequest::last(ints(2)).at(0).to_value();
        kernel.invoke(to, ops::WRITE, both).wait().unwrap();
    };
    let collector = Collector::new();
    let sink = Output::Collector(collector.clone());
    let acceptor = Stage::new(Input::Passive, sink, StageConfig::default());
    let acceptor = kernel.spawn(Box::new(acceptor)).unwrap();
    let depth = StageConfig {
        depth: 4,
        ..StageConfig::default()
    };
    let pipe = Stage::new(Input::Passive, Output::Passive, depth);
    let pipe = kernel.spawn(Box::new(pipe)).unwrap();
    let (seen, program_read) = mpsc::channel();
    let read_all = move |input: TransputReader| {
        let read: Vec<Value> = std::iter::from_fn(|| input.read()).collect();
        let _ = seen.send(read);
    };
    let program = kernel.spawn(Box::new(program_sink(read_all, 0))).unwrap();
    for to in [acceptor, pipe, program] {
        write_all(to);
    }
    // The acceptor of a recoverable pipeline is the last stage of a
    // write-only run, whose source has written it the same two records.
    let registry = TransformRegistry::default();
    install_recovery(kernel, &registry);
    let discipline = RecoveryDiscipline::WriteOnly;
    let timeout = Duration::from_secs(30);
    let run = run_recoverable_pipeline(kernel, discipline, ints(2), &[], &registry, 2, timeout);
    let recoverable = *run.unwrap().stages.last().unwrap();

    let read_as = |from: Uid, op: &'static str| -> Landed {
        Box::new(move |kernel: &Kernel| {
            let arg = TransferRequest::primary(8).to_value();
            let reply = kernel.invoke(from, op, arg).wait().unwrap();
            Batch::from_value(reply).unwrap().items
        })
    };
    vec![
        (
            "volatile acceptor",
            acceptor,
            Box::new(move |_: &Kernel| collector.items_so_far()),
        ),
        ("volatile pipe", pipe, read_as(pipe, ops::TRANSFER)),
        (
            "recoverable acceptor",
            recoverable,
            read_as(recoverable, READ_ALL),
        ),
        (
            "program_sink",
            program,
            Box::new(move |_: &Kernel| {
                let read = program_read.recv_timeout(Duration::from_secs(10));
                read.expect("the program reads to the end of its stream")
            }),
        ),
    ]
}

#[test]
fn every_stream_endpoint_refuses_a_foreign_channel_and_a_write_after_end() {
    let kernel = Kernel::new();
    for (endpoint, reader) in readers(&kernel) {
        // A guessed number and a forged capability: neither names a channel
        // this endpoint declared, whatever position the request claims.
        for channel in [ChannelId::Number(7), ChannelId::Cap(Uid::fresh())] {
            let foreign = TransferRequest {
                channel,
                max: 2,
                pos: Some(0),
            };
            let reply = kernel.invoke(reader, ops::TRANSFER, foreign.to_value());
            let err = reply.wait().expect_err(endpoint);
            let refused = matches!(
                err,
                EdenError::NoSuchChannel(_) | EdenError::NotAuthorized(_)
            );
            assert!(refused, "{endpoint}: {err}");
        }
        // It names its one channel to whoever asks (§5's `GetChannel`) ...
        let ask = GetChannelRequest {
            name: OUTPUT_NAME.into(),
        };
        let named = kernel
            .invoke(reader, ops::GET_CHANNEL, ask.to_value())
            .wait();
        let channel = ChannelId::try_from(&named.expect(endpoint)).expect(endpoint);
        // ... and serves it by that name. The refused reads took nothing:
        // the stream is all there.
        let primary = TransferRequest {
            channel,
            ..TransferRequest::primary(2).at(0)
        };
        let reply = kernel
            .invoke(reader, ops::TRANSFER, primary.to_value())
            .wait();
        let read = Batch::from_value(reply.unwrap()).unwrap().items;
        // (A listing line is a name and then a UID.)
        let first_word = |line: &Value| line.to_string().split(' ').next().unwrap().to_owned();
        let read: Vec<String> = read.iter().map(first_word).collect();
        assert_eq!(read, ["0", "1"], "{endpoint}");
    }
    for (endpoint, writer, landed) in writers(&kernel) {
        // A record beyond the end of the stream is a sender's bug ...
        let late = WriteRequest::more(vec![Value::Int(99)]).at(2).to_value();
        let err = kernel.invoke(writer, ops::WRITE, late).wait();
        let want = EdenError::Application("write after end of stream".into());
        assert_eq!(err.expect_err(endpoint), want, "{endpoint}");
        // ... a re-sent end is a retry, and changes nothing.
        let again = WriteRequest::last(Vec::new()).at(2).to_value();
        let ack = kernel.invoke(writer, ops::WRITE, again).wait();
        assert_eq!(ack, Ok(Value::Unit), "{endpoint}");
        assert_eq!(landed(&kernel), ints(2), "{endpoint}");
    }
    kernel.shutdown();
}

#[test]
fn a_window_over_two_sources_lands_every_record_labelled() {
    let kernel = Kernel::new();
    let source = |n: i64| {
        let supply = Input::Local(Box::new(VecSource::new(ints(n))));
        let stage = Stage::new(supply, Output::Passive, StageConfig::default());
        InputPort::primary(kernel.spawn(Box::new(stage)).unwrap())
    };
    let ports = vec![
        ("three".to_owned(), source(3)),
        ("five".to_owned(), source(5)),
    ];
    let window = Collector::new();
    let watching = report_window(ports, 2, window.clone());
    kernel.spawn(Box::new(watching)).unwrap();
    let landed = window.wait_done(Duration::from_secs(10)).unwrap();
    for (label, n) in [("three", 3), ("five", 5)] {
        let from = |record: &&Value| record.field("from").unwrap().as_str().unwrap() == label;
        let items = landed
            .iter()
            .filter(from)
            .map(|r| r.field("item").unwrap().clone());
        assert_eq!(items.collect::<Vec<_>>(), ints(n), "{label}");
    }
    assert_eq!(landed.len(), 8, "and nothing unlabelled");
    kernel.shutdown();
}
