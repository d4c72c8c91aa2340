//! End-to-end shell execution: language → Ejects → output.

use std::time::Duration;

use eden_core::op::ops;
use eden_core::Value;
use eden_fs::{add_entry, register_fs_types, DirectoryEject, FileEject, MemFs, UnixFsEject};
use eden_kernel::Kernel;
use eden_shell::ShellEnv;
use eden_transput::{Input, Output, Stage, StageConfig};

fn plain_env(kernel: &Kernel) -> ShellEnv {
    ShellEnv::new(kernel)
}

#[test]
fn seq_source_counts() {
    let kernel = Kernel::new();
    let run = plain_env(&kernel).run("seq 5").unwrap();
    assert_eq!(run.output, (0..5).map(Value::Int).collect::<Vec<_>>());
    kernel.shutdown();
}

#[test]
fn filters_compose() {
    let kernel = Kernel::new();
    let run = plain_env(&kernel)
        .run("lines 'the cat' 'a dog' 'the bird' | grep the | upcase | line-number")
        .unwrap();
    assert_eq!(
        run.output_lines(),
        vec!["     1  THE CAT", "     2  THE BIRD"]
    );
    kernel.shutdown();
}

#[test]
fn all_disciplines_produce_same_output() {
    let kernel = Kernel::new();
    let env = plain_env(&kernel);
    let base = "lines 'b' 'a' 'b' | sort | uniq";
    let ro = env.run(base).unwrap();
    let wo = env.run(&format!("@discipline=write-only {base}")).unwrap();
    let conv = env
        .run(&format!("@discipline=conventional {base}"))
        .unwrap();
    assert_eq!(ro.output_lines(), vec!["a", "b"]);
    assert_eq!(ro.output, wo.output);
    assert_eq!(wo.output, conv.output);
    kernel.shutdown();
}

#[test]
fn channel_tap_fills_window() {
    let kernel = Kernel::new();
    let run = plain_env(&kernel)
        .run("lines 'the cat zat' | spell-check the cat Report>spelling")
        .unwrap();
    assert_eq!(run.output_lines(), vec!["the cat zat"]);
    let window = &run.windows["spelling"];
    assert!(window[0].as_str().unwrap().contains("zat"));
    kernel.shutdown();
}

#[test]
fn capability_policy_directive_works() {
    let kernel = Kernel::new();
    let run = plain_env(&kernel)
        .run("@policy=cap lines 'x y' | spell-check x Report>w")
        .unwrap();
    assert_eq!(run.output_lines(), vec!["x y"]);
    assert!(!run.windows["w"].is_empty());
    kernel.shutdown();
}

#[test]
fn file_source_and_sink() {
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let input = kernel
        .spawn(Box::new(FileEject::from_lines(["C strip me", "keep me"])))
        .unwrap();
    let output = kernel.spawn(Box::new(FileEject::new())).unwrap();
    add_entry(&kernel, dir, "in.f", input).unwrap();
    add_entry(&kernel, dir, "out.f", output).unwrap();
    let env = plain_env(&kernel).with_directory(dir);
    let run = env.run("file in.f | strip-comments > file out.f").unwrap();
    assert_eq!(run.output_lines(), vec!["keep me"]);
    // The target file received the stream.
    let len = kernel.invoke(output, "Length", Value::Unit).wait().unwrap();
    assert_eq!(len, Value::Int(1));
    kernel.shutdown();
}

#[test]
fn unix_source_and_sink() {
    let fs = MemFs::with_files([("in.txt", "alpha\nbeta\n")]);
    let kernel = Kernel::new();
    let ufs = kernel
        .spawn(Box::new(UnixFsEject::new(fs.clone())))
        .unwrap();
    let env = plain_env(&kernel).with_unixfs(ufs);
    let run = env.run("unix in.txt | upcase > unix out.txt").unwrap();
    assert_eq!(run.output_lines(), vec!["ALPHA", "BETA"]);
    assert_eq!(
        String::from_utf8(fs.read("out.txt").unwrap()).unwrap(),
        "ALPHA\nBETA\n"
    );
    // The redirect moved nothing out from under the caller, and the copy
    // the run keeps is the only one.
    assert_eq!(run.output.len(), 2);
    assert!(run.run.output.is_empty());
    // A record that is not a string is written as the shell prints it.
    let run = env.run("seq 3 > unix n.txt").unwrap();
    assert_eq!(run.output_lines(), vec!["0", "1", "2"]);
    assert_eq!(
        String::from_utf8(fs.read("n.txt").unwrap()).unwrap(),
        "0\n1\n2\n"
    );
    kernel.shutdown();
}

#[test]
fn redirected_output_leaves_no_eject_behind() {
    let fs = MemFs::new();
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let file = kernel.spawn(Box::new(FileEject::new())).unwrap();
    add_entry(&kernel, dir, "f", file).unwrap();
    let ufs = kernel
        .spawn(Box::new(UnixFsEject::new(fs.clone())))
        .unwrap();
    let env = plain_env(&kernel).with_directory(dir).with_unixfs(ufs);
    let before = kernel.eject_count();
    env.run("seq 3 > file f").unwrap();
    env.run("seq 3 > unix n.txt").unwrap();
    assert_eq!(
        String::from_utf8(fs.read("n.txt").unwrap()).unwrap(),
        "0\n1\n2\n"
    );
    // Each redirect read its output through a reader of its own; once read
    // out, the reader disappears.
    let readers: Vec<_> = kernel
        .list_ejects()
        .into_iter()
        .filter(|row| ["DisposableReader", "StreamSource"].contains(&row.type_name.as_str()))
        .map(|row| row.uid)
        .collect();
    assert!(
        kernel.await_gone(&readers, Duration::from_secs(10)),
        "{readers:?} stayed"
    );
    assert_eq!(kernel.eject_count(), before);
    kernel.shutdown();
}

#[test]
fn merge_and_zip_sources() {
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    for (name, lines) in [("a", vec!["a1", "a2"]), ("b", vec!["b1", "a2"])] {
        let file = kernel
            .spawn(Box::new(FileEject::from_lines(lines)))
            .unwrap();
        add_entry(&kernel, dir, name, file).unwrap();
    }
    let env = plain_env(&kernel).with_directory(dir);
    // merge = cat a b.
    let run = env.run("merge a b | sort").unwrap();
    assert_eq!(run.output_lines(), vec!["a1", "a2", "a2", "b1"]);
    // zip + compare = §5's file comparison program.
    let run = env.run("zip a b | compare").unwrap();
    let lines = run.output_lines();
    assert!(lines[0].starts_with("1c1"), "{lines:?}");
    assert!(lines.last().unwrap().contains("1 difference(s)"));
    // Parse errors are clean.
    assert!(env.run("merge").is_err());
    kernel.shutdown();
}

#[test]
fn file_source_without_directory_fails() {
    let kernel = Kernel::new();
    let err = plain_env(&kernel).run("file nope.txt").unwrap_err();
    assert!(err.to_string().contains("no directory"));
    kernel.shutdown();
}

#[test]
fn unknown_filter_reports_name() {
    let kernel = Kernel::new();
    let err = plain_env(&kernel).run("seq 1 | frobnicate").unwrap_err();
    assert!(err.to_string().contains("frobnicate"));
    kernel.shutdown();
}

#[test]
fn sed_via_shell() {
    let kernel = Kernel::new();
    let run = plain_env(&kernel)
        .run("lines 'the cat' 'a bird' | sed 's/cat/dog/' 'd/bird/'")
        .unwrap();
    assert_eq!(run.output_lines(), vec!["the dog"]);
    kernel.shutdown();
}

#[test]
fn wc_summary_record() {
    let kernel = Kernel::new();
    let run = plain_env(&kernel)
        .run("lines 'one two' 'three' | wc")
        .unwrap();
    assert_eq!(run.output.len(), 1);
    assert_eq!(run.output[0].field("words").unwrap().as_int().unwrap(), 3);
    kernel.shutdown();
}

#[test]
fn shell_pipeline_tears_down_ejects() {
    let kernel = Kernel::new();
    plain_env(&kernel).run("seq 10 | upcase | sort").unwrap();
    assert_eq!(kernel.eject_count(), 0);
    kernel.shutdown();
}

#[test]
fn directives_tune_disciplines() {
    let kernel = Kernel::new();
    let env = plain_env(&kernel);
    for cmd in [
        "@readahead=8 seq 20 | copy",
        "@discipline=write-only @pushahead=4 seq 20 | copy",
        "@discipline=conventional @buffer=2 @batch=2 seq 20 | copy",
        "@nodes=3 seq 20 | copy",
    ] {
        let run = env.run(cmd).unwrap();
        assert_eq!(run.output.len(), 20, "failed: {cmd}");
    }
    kernel.shutdown();
}

#[test]
fn listing_a_directory_through_the_shell() {
    // Directories are sources (§2): pipe a listing through a filter.
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let home = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    add_entry(&kernel, dir, "home", home).unwrap();
    add_entry(&kernel, dir, "zoo", eden_core::Uid::fresh()).unwrap();
    // Prepare the listing, then read the directory itself as a source.
    kernel.invoke(dir, ops::LIST, Value::Unit).wait().unwrap();
    let env = plain_env(&kernel);
    // There is no `dir` source kind; use the builder path via `file`-less
    // eject reading — covered by the transput tests. Here we check the
    // listing contents arrived via a plain read.
    let collector = eden_transput::Collector::new();
    kernel
        .spawn(Box::new(Stage::new(
            Input::pull(dir),
            Output::Collector(collector.clone()),
            StageConfig::batch(8),
        )))
        .unwrap();
    let lines = collector
        .wait_done(std::time::Duration::from_secs(5))
        .unwrap();
    assert_eq!(lines.len(), 2);
    drop(env);
    kernel.shutdown();
}
