//! Filing-system behaviour across the kernel: files as streams, WriteFrom,
//! checkpoint durability, directories, concatenators, and the §7 bootstrap.

use std::time::Duration;

use eden_core::op::ops;
use eden_core::{EdenError, Value};
use eden_fs::{
    add_entry, lookup, new_stream_arg, register_fs_types, use_stream_arg, DirConcatenatorEject,
    DirectoryEject, FileEject, MemFs, UnixFsEject,
};
use eden_kernel::{EjectState, Kernel, KernelConfig, StableStore};
use eden_transput::collector::Collector;
use eden_transput::protocol::{Batch, TransferRequest};
use eden_transput::source::VecSource;
use eden_transput::{Input, Output, Stage, StageConfig};

fn read_stream_fully(kernel: &Kernel, stream: eden_core::Uid) -> Vec<Value> {
    let collector = Collector::new();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(stream),
            Output::Collector(collector.clone()),
            StageConfig::batch(8),
        )))
        .unwrap();
    collector.wait_done(Duration::from_secs(10)).unwrap()
}

#[test]
fn open_mints_private_reader_streams() {
    let kernel = Kernel::new();
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(["one", "two", "three"])))
        .unwrap();
    // Two independent opens read the full contents independently.
    let r1 = kernel
        .invoke(file, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    let r2 = kernel
        .invoke(file, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    assert_ne!(r1, r2, "each Open mints a fresh stream capability");
    let a = read_stream_fully(&kernel, r1);
    let b = read_stream_fully(&kernel, r2);
    assert_eq!(a, b);
    assert_eq!(a.len(), 3);
    kernel.shutdown();
}

#[test]
fn exhausted_reader_disappears() {
    let kernel = Kernel::new();
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(["only"])))
        .unwrap();
    let reader = kernel
        .invoke(file, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    let batch = Batch::from_value(
        kernel
            .invoke(
                reader,
                ops::TRANSFER,
                TransferRequest::primary(8).to_value(),
            )
            .wait()
            .unwrap(),
    )
    .unwrap();
    assert!(batch.end);
    // The reader deactivates itself and, never having checkpointed,
    // disappears (§7 pattern).
    kernel.await_gone(&[reader], Duration::from_secs(5));
    assert_eq!(kernel.eject_state(reader), None);
    kernel.shutdown();
}

#[test]
fn close_destroys_reader_early() {
    let kernel = Kernel::new();
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(["a", "b"])))
        .unwrap();
    let reader = kernel
        .invoke(file, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    kernel
        .invoke(reader, ops::CLOSE, Value::Unit)
        .wait()
        .unwrap();
    kernel.await_gone(&[reader], Duration::from_secs(5));
    assert_eq!(kernel.eject_state(reader), None);
    kernel.shutdown();
}

#[test]
fn write_from_pulls_source_and_checkpoints() {
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let file = kernel.spawn(Box::new(FileEject::new())).unwrap();
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::from_lines(["alpha", "beta"]))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let written = kernel
        .invoke(
            file,
            ops::WRITE_FROM,
            Value::record([("source", Value::Uid(source))]),
        )
        .wait()
        .unwrap();
    assert_eq!(written, Value::Int(2));
    // The write checkpointed: crash the file and read it back.
    kernel.crash(file).unwrap();
    assert_eq!(kernel.eject_state(file), Some(EjectState::Passive));
    let reader = kernel
        .invoke(file, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    let contents = read_stream_fully(&kernel, reader);
    assert_eq!(contents, vec![Value::str("alpha"), Value::str("beta")]);
    kernel.shutdown();
}

#[test]
fn write_from_append_mode() {
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(["first"])))
        .unwrap();
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::from_lines(["second"]))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    kernel
        .invoke(
            file,
            ops::WRITE_FROM,
            Value::record([
                ("source", Value::Uid(source)),
                ("mode", Value::str("append")),
            ]),
        )
        .wait()
        .unwrap();
    let len = kernel.invoke(file, "Length", Value::Unit).wait().unwrap();
    assert_eq!(len, Value::Int(2));
    let generation = kernel
        .invoke(file, "Generation", Value::Unit)
        .wait()
        .unwrap();
    assert_eq!(generation, Value::Int(1));
    kernel.shutdown();
}

#[test]
fn file_survives_whole_system_restart() {
    let store = StableStore::new();
    let file;
    {
        let kernel = Kernel::with_stable_store(KernelConfig::default(), store.clone());
        register_fs_types(&kernel);
        file = kernel
            .spawn(Box::new(FileEject::from_lines(["durable"])))
            .unwrap();
        kernel
            .invoke(file, ops::CHECKPOINT, Value::Unit)
            .wait()
            .unwrap();
        kernel.shutdown();
    }
    let kernel2 = Kernel::with_stable_store(KernelConfig::default(), store);
    register_fs_types(&kernel2);
    let reader = kernel2
        .invoke(file, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    let contents = read_stream_fully(&kernel2, reader);
    assert_eq!(contents, vec![Value::str("durable")]);
    kernel2.shutdown();
}

#[test]
fn directory_crud_via_invocation() {
    let kernel = Kernel::new();
    let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(["x"])))
        .unwrap();
    add_entry(&kernel, dir, "notes.txt", file).unwrap();
    assert_eq!(lookup(&kernel, dir, "notes.txt").unwrap(), file);
    assert!(matches!(
        lookup(&kernel, dir, "nope").unwrap_err(),
        EdenError::Application(_)
    ));
    kernel
        .invoke(
            dir,
            ops::DELETE_ENTRY,
            Value::record([("name", Value::str("notes.txt"))]),
        )
        .wait()
        .unwrap();
    assert!(lookup(&kernel, dir, "notes.txt").is_err());
    kernel.shutdown();
}

#[test]
fn directory_listing_is_a_stream() {
    // §2/§4: directories support the stream protocol; a sink can read a
    // directory listing exactly as it reads a file.
    let kernel = Kernel::new();
    let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    for name in ["zulu", "alpha", "mike"] {
        add_entry(&kernel, dir, name, eden_core::Uid::fresh()).unwrap();
    }
    let count = kernel.invoke(dir, ops::LIST, Value::Unit).wait().unwrap();
    assert_eq!(count, Value::Int(3));
    let lines = read_stream_fully(&kernel, dir);
    assert_eq!(lines.len(), 3);
    let names: Vec<String> = lines
        .iter()
        .map(|l| {
            l.as_str()
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .to_owned()
        })
        .collect();
    assert_eq!(names, vec!["alpha", "mike", "zulu"]);
    kernel.shutdown();
}

#[test]
fn directory_survives_restart() {
    let store = StableStore::new();
    let dir;
    let file;
    {
        let kernel = Kernel::with_stable_store(KernelConfig::default(), store.clone());
        register_fs_types(&kernel);
        dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
        file = eden_core::Uid::fresh();
        add_entry(&kernel, dir, "kept", file).unwrap();
        kernel
            .invoke(dir, ops::CHECKPOINT, Value::Unit)
            .wait()
            .unwrap();
        kernel.shutdown();
    }
    let kernel2 = Kernel::with_stable_store(KernelConfig::default(), store);
    register_fs_types(&kernel2);
    assert_eq!(lookup(&kernel2, dir, "kept").unwrap(), file);
    kernel2.shutdown();
}

#[test]
fn rename_within_a_directory_is_atomic() {
    let kernel = Kernel::new();
    let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let uid = eden_core::Uid::fresh();
    add_entry(&kernel, dir, "old", uid).unwrap();
    eden_fs::rename_entry(&kernel, dir, "old", "new").unwrap();
    assert!(lookup(&kernel, dir, "old").is_err());
    assert_eq!(lookup(&kernel, dir, "new").unwrap(), uid);
    // Collisions and missing sources fail cleanly.
    add_entry(&kernel, dir, "other", eden_core::Uid::fresh()).unwrap();
    assert!(eden_fs::rename_entry(&kernel, dir, "new", "other").is_err());
    assert!(eden_fs::rename_entry(&kernel, dir, "ghost", "x").is_err());
    // Self-rename is a no-op success.
    eden_fs::rename_entry(&kernel, dir, "new", "new").unwrap();
    assert_eq!(lookup(&kernel, dir, "new").unwrap(), uid);
    kernel.shutdown();
}

#[test]
fn move_entry_across_directories() {
    let kernel = Kernel::new();
    let a = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let b = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let uid = eden_core::Uid::fresh();
    add_entry(&kernel, a, "doc", uid).unwrap();
    eden_fs::move_entry(&kernel, a, "doc", b, "doc-v2").unwrap();
    assert!(lookup(&kernel, a, "doc").is_err());
    assert_eq!(lookup(&kernel, b, "doc-v2").unwrap(), uid);
    kernel.shutdown();
}

#[test]
fn move_entry_compensates_on_failure() {
    // Crash the source directory between the destination insert and the
    // source delete: the move must compensate, leaving the destination
    // clean (the entry is never lost, and after compensation never
    // duplicated).
    let kernel = Kernel::new();
    let a = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let b = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let uid = eden_core::Uid::fresh();
    add_entry(&kernel, a, "doc", uid).unwrap();
    // Simulate the window: insert at the destination, then kill A before
    // the delete (directories don't checkpoint here, so A's delete fails
    // with NoSuchEject). We reproduce move_entry's steps directly since
    // the fault window is internal to it.
    add_entry(&kernel, b, "doc", uid).unwrap();
    kernel.crash(a).unwrap();
    let removed = kernel
        .invoke(
            a,
            ops::DELETE_ENTRY,
            Value::record([("name", Value::str("doc"))]),
        )
        .wait();
    assert!(removed.is_err());
    // Compensation path: remove from B again.
    kernel
        .invoke(
            b,
            ops::DELETE_ENTRY,
            Value::record([("name", Value::str("doc"))]),
        )
        .wait()
        .unwrap();
    assert!(lookup(&kernel, b, "doc").is_err());
    kernel.shutdown();
}

#[test]
fn kernel_lists_ejects_with_types() {
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(["x"])))
        .unwrap();
    kernel
        .invoke(file, ops::CHECKPOINT, Value::Unit)
        .wait()
        .unwrap();
    kernel
        .invoke(file, ops::DEACTIVATE, Value::Unit)
        .wait()
        .unwrap();
    kernel.await_gone(&[file], Duration::from_secs(5));
    let rows = kernel.list_ejects();
    assert_eq!(rows.len(), 2);
    let dir_row = rows.iter().find(|r| r.uid == dir).unwrap();
    assert_eq!(dir_row.state, EjectState::Active);
    assert_eq!(dir_row.type_name, "EdenDirectory");
    let file_row = rows.iter().find(|r| r.uid == file).unwrap();
    assert_eq!(file_row.state, EjectState::Passive);
    assert_eq!(file_row.type_name, "EdenFile");
    kernel.shutdown();
}

#[test]
fn concatenator_searches_in_order() {
    let kernel = Kernel::new();
    let d1 = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let d2 = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let only_in_d2 = eden_core::Uid::fresh();
    let in_both_d1 = eden_core::Uid::fresh();
    let in_both_d2 = eden_core::Uid::fresh();
    add_entry(&kernel, d2, "late", only_in_d2).unwrap();
    add_entry(&kernel, d1, "both", in_both_d1).unwrap();
    add_entry(&kernel, d2, "both", in_both_d2).unwrap();
    let path = kernel
        .spawn(Box::new(DirConcatenatorEject::new(vec![d1, d2])))
        .unwrap();
    // Found in the second directory.
    assert_eq!(lookup(&kernel, path, "late").unwrap(), only_in_d2);
    // First directory shadows the second (PATH semantics).
    assert_eq!(lookup(&kernel, path, "both").unwrap(), in_both_d1);
    // Missing everywhere.
    assert!(lookup(&kernel, path, "nowhere").is_err());
    kernel.shutdown();
}

#[test]
fn concatenator_is_behaviourally_a_directory() {
    // §2: any Eject answering Lookup correctly *is* a directory to its
    // clients. The same helper works on both.
    let kernel = Kernel::new();
    let real = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let uid = eden_core::Uid::fresh();
    add_entry(&kernel, real, "entry", uid).unwrap();
    let concat = kernel
        .spawn(Box::new(DirConcatenatorEject::new(vec![real])))
        .unwrap();
    assert_eq!(lookup(&kernel, concat, "entry").unwrap(), uid);
    kernel.shutdown();
}

#[test]
fn unixfs_new_stream_reads_host_file() {
    // Text; bytes that are not UTF-8, which read as `from_utf8_lossy` gives
    // them; and nothing at all.
    let damaged = b"caf\xe9 au lait\r\n\xff\xfe\n\ngr\xc3\xbc\xc3\x9f\nno newline".to_vec();
    let files = [
        ("motd", b"welcome\nto eden\n".to_vec()),
        ("damaged", damaged),
        ("empty", Vec::new()),
    ];
    let kernel = Kernel::new();
    let ufs = kernel
        .spawn(Box::new(UnixFsEject::new(MemFs::with_files(files.clone()))))
        .unwrap();
    for (name, bytes) in files {
        let stream = kernel
            .invoke(ufs, ops::NEW_STREAM, new_stream_arg(name))
            .wait()
            .unwrap()
            .as_uid()
            .unwrap();
        let lines = read_stream_fully(&kernel, stream);
        let text = String::from_utf8_lossy(&bytes);
        let want: Vec<Value> = text.lines().map(Value::str).collect();
        assert_eq!(lines, want, "{name}");
    }
    kernel.shutdown();
}

#[test]
fn unixfs_new_stream_missing_file_errors() {
    let kernel = Kernel::new();
    let ufs = kernel
        .spawn(Box::new(UnixFsEject::new(MemFs::new())))
        .unwrap();
    let err = kernel
        .invoke(ufs, ops::NEW_STREAM, new_stream_arg("ghost"))
        .wait()
        .unwrap_err();
    assert!(matches!(err, EdenError::HostFs(_)));
    kernel.shutdown();
}

#[test]
fn unixfs_use_stream_writes_host_file() {
    let fs = MemFs::new();
    let kernel = Kernel::new();
    let ufs = kernel
        .spawn(Box::new(UnixFsEject::new(fs.clone())))
        .unwrap();
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::from_lines([
                "out line 1",
                "out line 2",
            ]))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let written = kernel
        .invoke(ufs, ops::USE_STREAM, use_stream_arg("result.txt", source))
        .wait()
        .unwrap();
    assert_eq!(written, Value::Int(2));
    assert_eq!(
        String::from_utf8(fs.read("result.txt").unwrap()).unwrap(),
        "out line 1\nout line 2\n"
    );
    kernel.shutdown();
}

#[test]
fn unixfs_roundtrip_copy() {
    // cp via Eden: NewStream("a") piped into UseStream("b").
    let fs = MemFs::with_files([("a", "copy me\nexactly\n")]);
    let kernel = Kernel::new();
    let ufs = kernel
        .spawn(Box::new(UnixFsEject::new(fs.clone())))
        .unwrap();
    let stream = kernel
        .invoke(ufs, ops::NEW_STREAM, new_stream_arg("a"))
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    kernel
        .invoke(ufs, ops::USE_STREAM, use_stream_arg("b", stream))
        .wait()
        .unwrap();
    assert_eq!(fs.read("a").unwrap(), fs.read("b").unwrap());
    kernel.shutdown();
}

#[test]
fn file_and_program_are_interchangeable_sources() {
    // §4: "Since files are active entities, there is no distinction
    // between input redirection from a file and from a program."
    let kernel = Kernel::new();
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(["same", "stream"])))
        .unwrap();
    let file_reader = kernel
        .invoke(file, ops::OPEN, Value::Unit)
        .wait()
        .unwrap()
        .as_uid()
        .unwrap();
    let program = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::from_lines(["same", "stream"]))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let from_file = read_stream_fully(&kernel, file_reader);
    let from_program = read_stream_fully(&kernel, program);
    assert_eq!(from_file, from_program);
    kernel.shutdown();
}
