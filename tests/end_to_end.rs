//! Cross-crate scenarios: files, directories, filters and pipelines
//! composed the way a user of the 1983 system would have composed them.

use std::time::Duration;

use eden::core::op::ops;
use eden::core::{EdenError, Value};
use eden::filters::{Compare, SpellCheck, StreamEditor, WordCount};
use eden::fs::{
    add_entry, lookup, register_fs_types, DirConcatenatorEject, DirectoryEject, FileEject, MemFs,
    UnixFsEject,
};
use eden::kernel::{Kernel, KernelConfig, StableStore};
use eden::transput::collector::Collector;
use eden::transput::source::VecSource;
use eden::transput::{Discipline, PipelineSpec};
use eden::transput::{FanInMode, Input, InputPort, Output, Stage, StageConfig};

fn lines(ls: &[&str]) -> Vec<Value> {
    ls.iter().map(|l| Value::str(*l)).collect()
}

fn drain(kernel: &Kernel, source: eden::core::Uid) -> Vec<Value> {
    let c = Collector::new();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(source),
            Output::local(c.clone()),
            StageConfig::batch(8),
        )))
        .unwrap();
    c.wait_done(Duration::from_secs(15)).unwrap()
}

#[test]
fn file_through_filters_into_file() {
    // A complete workflow: look a file up by name, pipe it through
    // filters, write the result into another file, survive a crash.
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let home = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let draft = kernel
        .spawn(Box::new(FileEject::from_lines([
            "C draft header",
            "once upon a time",
            "C scratch note",
            "THE END",
        ])))
        .unwrap();
    let published = kernel.spawn(Box::new(FileEject::new())).unwrap();
    add_entry(&kernel, home, "draft", draft).unwrap();
    add_entry(&kernel, home, "published", published).unwrap();

    let found = lookup(&kernel, home, "draft").unwrap();
    let reader = kernel
        .invoke(found, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
        .source_eject(reader)
        .stage(Box::new(eden::filters::StripComments::fortran()))
        .stage(Box::new(eden::filters::CaseFold::lower()))
        .build(&kernel)
        .unwrap()
        .run(Duration::from_secs(15))
        .unwrap();
    assert_eq!(run.output, lines(&["once upon a time", "the end"]));

    // Write results into the published file (WriteFrom = active input by
    // the file), then crash it and read it back from its checkpoint.
    let staging = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::new(run.output.clone()))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    kernel
        .invoke(
            published,
            ops::WRITE_FROM,
            Value::record([("source", Value::Uid(staging))]),
        )
        .wait()
        .unwrap();
    kernel.crash(published).unwrap();
    let reader = kernel
        .invoke(published, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    assert_eq!(drain(&kernel, reader), run.output);
    kernel.shutdown();
}

#[test]
fn editor_command_stream_is_fan_in_at_setup() {
    // §5: "stream editors that have a command input as well as a text
    // input." The wirer reads the command stream (active input — trivial
    // in the read-only discipline) and builds the editor with it.
    let kernel = Kernel::new();
    let command_file = kernel
        .spawn(Box::new(FileEject::from_lines([
            "s/colour/color/",
            "d/DRAFT/",
        ])))
        .unwrap();
    let commands_reader = kernel
        .invoke(command_file, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    let command_lines = drain(&kernel, commands_reader);
    let script: Vec<&str> = command_lines.iter().map(|v| v.as_str().unwrap()).collect();
    let editor = StreamEditor::from_command_lines(script).unwrap();

    let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
        .source_vec(lines(&["the colour red", "DRAFT do not ship", "done"]))
        .stage(Box::new(editor))
        .build(&kernel)
        .unwrap()
        .run(Duration::from_secs(15))
        .unwrap();
    assert_eq!(run.output, lines(&["the color red", "done"]));
    kernel.shutdown();
}

#[test]
fn compare_two_files_with_zip_fan_in() {
    // §5's file comparison program: one filter, two input UIDs.
    let kernel = Kernel::new();
    let left = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::from_lines(["alpha", "beta", "gamma"]))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let right = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::from_lines(["alpha", "BETA", "gamma"]))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let comparator = kernel
        .spawn(Box::new(Stage::filter(
            Input::ports(
                vec![InputPort::primary(left), InputPort::primary(right)],
                FanInMode::Zip,
            ),
            Box::new(Compare::new()),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let out = drain(&kernel, comparator);
    let text: Vec<&str> = out.iter().map(|v| v.as_str().unwrap()).collect();
    assert!(text[0].starts_with("2c2"), "diff at row 2: {text:?}");
    assert!(text.last().unwrap().contains("1 difference(s)"));
    kernel.shutdown();
}

#[test]
fn crash_mid_pipeline_is_reported_not_hung() {
    let kernel = Kernel::new();
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(eden::transput::source::FnSource::new(
                1_000_000,
                |i| Value::Int(i as i64),
            ))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let filter = kernel
        .spawn(Box::new(Stage::filter(
            Input::pull(source),
            Box::new(eden::transput::transform::Identity),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let collector = Collector::null();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(filter),
            Output::local(collector.clone()),
            StageConfig::batch(16),
        )))
        .unwrap();
    // Bounded wait: if the stream stalls before the crash is even
    // injected, fail with a diagnosis instead of hanging the suite.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while collector.records_seen() < 100 {
        assert!(
            std::time::Instant::now() < deadline,
            "stream stalled at {} records before the crash",
            collector.records_seen()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    kernel.crash(filter).unwrap();
    let err = collector.wait_done(Duration::from_secs(15)).unwrap_err();
    assert!(
        matches!(err, EdenError::EjectCrashed(_) | EdenError::NoSuchEject(_)),
        "unexpected: {err}"
    );
    kernel.shutdown();
}

#[test]
fn whole_system_restart_preserves_filing_tree() {
    let store = StableStore::new();
    let (root, file) = {
        let kernel = Kernel::with_stable_store(KernelConfig::default(), store.clone());
        register_fs_types(&kernel);
        let root = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
        let file = kernel
            .spawn(Box::new(FileEject::from_lines(["persistent truth"])))
            .unwrap();
        add_entry(&kernel, root, "truth.txt", file).unwrap();
        kernel
            .invoke(file, ops::CHECKPOINT, Value::Unit)
            .wait()
            .unwrap();
        kernel
            .invoke(root, ops::CHECKPOINT, Value::Unit)
            .wait()
            .unwrap();
        kernel.shutdown();
        (root, file)
    };
    // "Reboot": fresh kernel, same stable store, re-register types.
    let kernel = Kernel::with_stable_store(KernelConfig::default(), store);
    register_fs_types(&kernel);
    assert_eq!(lookup(&kernel, root, "truth.txt").unwrap(), file);
    let reader = kernel
        .invoke(file, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    assert_eq!(drain(&kernel, reader), lines(&["persistent truth"]));
    kernel.shutdown();
}

#[test]
fn unixfs_pipeline_roundtrip_all_disciplines() {
    let fs = MemFs::with_files([("in.txt", "keep\nC drop\nkeep too\n")]);
    let kernel = Kernel::new();
    let ufs = kernel
        .spawn(Box::new(UnixFsEject::new(fs.clone())))
        .unwrap();
    for (i, discipline) in [
        Discipline::ReadOnly { read_ahead: 4 },
        Discipline::WriteOnly { push_ahead: 2 },
        Discipline::Conventional { buffer_capacity: 4 },
    ]
    .into_iter()
    .enumerate()
    {
        let stream = kernel
            .invoke(ufs, ops::NEW_STREAM, eden::fs::new_stream_arg("in.txt"))
            .wait()
            .unwrap()
            .as_uid()
            .unwrap();
        let run = PipelineSpec::new(discipline)
            .source_eject(stream)
            .stage(Box::new(eden::filters::StripComments::fortran()))
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(15))
            .unwrap();
        assert_eq!(run.output, lines(&["keep", "keep too"]), "discipline {i}");
    }
    kernel.shutdown();
}

#[test]
fn path_like_lookup_through_concatenator_feeds_pipeline() {
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let bin = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let local = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(["found via PATH"])))
        .unwrap();
    add_entry(&kernel, local, "data", file).unwrap();
    let path = kernel
        .spawn(Box::new(DirConcatenatorEject::new(vec![bin, local])))
        .unwrap();
    let found = lookup(&kernel, path, "data").unwrap();
    let reader = kernel
        .invoke(found, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    assert_eq!(drain(&kernel, reader), lines(&["found via PATH"]));
    kernel.shutdown();
}

#[test]
fn spellcheck_reports_survive_all_disciplines() {
    // Figures 3 and 4 produce the same windows.
    let kernel = Kernel::new();
    let mut captured = Vec::new();
    for discipline in [
        Discipline::WriteOnly { push_ahead: 0 },
        Discipline::ReadOnly { read_ahead: 0 },
        Discipline::Conventional { buffer_capacity: 8 },
    ] {
        let run = PipelineSpec::new(discipline)
            .source_vec(lines(&["the catt sat"]))
            .stage(Box::new(SpellCheck::new(["the", "sat"])))
            .tap(0, eden::transput::protocol::REPORT_NAME)
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(15))
            .unwrap();
        let report = run
            .report(0, eden::transput::protocol::REPORT_NAME)
            .unwrap()
            .to_vec();
        captured.push(report);
    }
    assert_eq!(captured[0], captured[1]);
    assert_eq!(captured[1], captured[2]);
    assert!(captured[0][0].as_str().unwrap().contains("catt"));
    kernel.shutdown();
}

#[test]
fn wc_over_long_stream() {
    let kernel = Kernel::new();
    let n = 5_000;
    let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 32 })
        .source(Box::new(eden::transput::source::FnSource::new(n, |i| {
            Value::str(format!("line {i} with words"))
        })))
        .stage(Box::new(WordCount::new()))
        .batch(64)
        .build(&kernel)
        .unwrap()
        .run(Duration::from_secs(30))
        .unwrap();
    assert_eq!(run.output.len(), 1);
    assert_eq!(
        run.output[0].field("lines").unwrap().as_int().unwrap(),
        n as i64
    );
    kernel.shutdown();
}
