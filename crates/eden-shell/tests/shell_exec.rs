//! End-to-end shell execution: language → Ejects → output.

use std::time::Duration;

use eden_core::op::ops;
use eden_core::Uid;
use eden_core::Value;
use eden_fs::{
    add_entry, register_fs_types, DirectoryEject, FileEject, MemFs, RealFs, UnixFsEject,
};
use eden_kernel::Kernel;
use eden_shell::ShellEnv;
use eden_transput::{Discipline, Input, Output, PipelineSpec, Stage, StageConfig};

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
    // A redirected command prints nothing: the target file has the stream.
    assert!(run.output.is_empty());
    assert_eq!(file_lines(&kernel, output), vec!["keep me"]);
    kernel.shutdown();
}

/// What a record file holds, as the shell prints it.
fn file_lines(kernel: &Kernel, file: Uid) -> Vec<String> {
    let reader = kernel.invoke(file, ops::OPEN, Value::Unit).wait().unwrap();
    let read = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
        .source_eject(reader.as_uid().unwrap())
        .build(kernel)
        .and_then(|pipeline| pipeline.run(Duration::from_secs(10)));
    read.unwrap().output.iter().map(Value::to_string).collect()
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
    assert_eq!(
        String::from_utf8(fs.read("out.txt").unwrap()).unwrap(),
        "ALPHA\nBETA\n"
    );
    // The records went once, into the file, and nowhere else.
    assert!(run.output.is_empty());
    assert!(run.run.output.is_empty());
    // A record that is not a string is written as the shell prints it.
    let run = env.run("seq 3 > unix n.txt").unwrap();
    assert!(run.output.is_empty());
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
    for discipline in ["read-only", "write-only", "conventional"] {
        env.run(&format!("@discipline={discipline} seq 3 > file f"))
            .unwrap();
        env.run(&format!("@discipline={discipline} seq 3 > unix n.txt"))
            .unwrap();
        assert_eq!(
            String::from_utf8(fs.read("n.txt").unwrap()).unwrap(),
            "0\n1\n2\n",
            "{discipline}"
        );
        assert_eq!(
            file_lines(&kernel, file),
            vec!["0", "1", "2"],
            "{discipline}"
        );
    }
    // Each redirect wrote through a writer of its own, which pulled the
    // stream or took its writes; once the file holds it, the writer
    // disappears — and so does each `file_lines` reader, once read out.
    let streams: Vec<_> = kernel
        .list_ejects()
        .into_iter()
        .filter(|row| row.type_name.starts_with("Disposable"))
        .map(|row| row.uid)
        .collect();
    assert!(
        kernel.await_gone(&streams, Duration::from_secs(10)),
        "{streams:?} stayed"
    );
    assert_eq!(kernel.eject_count(), before);
    kernel.shutdown();
}

#[test]
fn a_redirect_at_every_depth_leaves_the_exact_file() {
    let fs = MemFs::with_files([("in.txt", "one\nlazy two\nthree\nfour\nlazy five\n")]);
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let file = kernel.spawn(Box::new(FileEject::new())).unwrap();
    add_entry(&kernel, dir, "f", file).unwrap();
    let ufs = kernel
        .spawn(Box::new(UnixFsEject::new(fs.clone())))
        .unwrap();
    let env = plain_env(&kernel).with_directory(dir).with_unixfs(ufs);
    let want = ["     1  ONE", "     2  THREE", "     3  FOUR"];
    for directives in [
        "@readahead=2",
        "@discipline=write-only @pushahead=2",
        "@discipline=conventional @buffer=2",
    ] {
        for batch in [1, 2, 64] {
            let chain = "unix in.txt | grep -v lazy | upcase | line-number";
            let run = |sink: &str| {
                let command = format!("{directives} @batch={batch} {chain} > {sink}");
                let run = env
                    .run(&command)
                    .unwrap_or_else(|e| panic!("{command}: {e}"));
                assert!(run.output.is_empty(), "{command}");
            };
            run("unix out.txt");
            let out = String::from_utf8(fs.read("out.txt").unwrap()).unwrap();
            assert_eq!(
                out,
                want.map(|l| format!("{l}\n")).concat(),
                "{directives} {batch}"
            );
            run("file f");
            assert_eq!(file_lines(&kernel, file), want, "{directives} {batch}");
        }
    }
    kernel.shutdown();
}

#[test]
fn a_host_file_that_refuses_the_write_is_the_command_s_error() {
    let root = std::env::temp_dir().join(format!("eden-shell-escape-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let kernel = Kernel::new();
    let ufs = kernel
        .spawn(Box::new(UnixFsEject::new(RealFs::new(&root).unwrap())))
        .unwrap();
    let env = plain_env(&kernel).with_unixfs(ufs);
    let before = kernel.eject_count();
    for discipline in ["read-only", "write-only", "conventional"] {
        let command = format!("@discipline={discipline} seq 3 > unix ../escape");
        let err = env.run(&command).expect_err(&command);
        assert!(
            matches!(err, eden_core::EdenError::HostFs(_)),
            "{command}: {err}"
        );
    }
    assert!(!root.join("../escape").exists());
    let writers: Vec<_> = kernel
        .list_ejects()
        .into_iter()
        .map(|row| row.uid)
        .collect();
    kernel.await_gone(&writers[before..], Duration::from_secs(10));
    assert_eq!(
        kernel.eject_count(),
        before,
        "the failed commands left Ejects behind"
    );
    std::fs::remove_dir_all(&root).unwrap();
    kernel.shutdown();
}

#[test]
fn a_redirect_to_no_such_file_fails_before_anything_runs() {
    let kernel = Kernel::new();
    register_fs_types(&kernel);
    let dir = kernel.spawn(Box::new(DirectoryEject::new())).unwrap();
    let env = plain_env(&kernel).with_directory(dir);
    let before = kernel.eject_count();
    assert!(env.run("seq 3 > file nope").is_err());
    assert_eq!(kernel.eject_count(), before);
    kernel.shutdown();
}

#[test]
fn a_redirect_to_unix_without_a_unixfs_fails_before_anything_runs() {
    let kernel = Kernel::new();
    let env = plain_env(&kernel);
    let before = kernel.eject_count();
    let err = env.run("seq 3 > unix out.txt").unwrap_err();
    assert!(err.to_string().contains("no UnixFs"), "{err}");
    assert_eq!(kernel.eject_count(), before);
    kernel.shutdown();
}

#[test]
fn a_redirect_to_a_file_without_a_directory_fails_before_anything_runs() {
    let kernel = Kernel::new();
    let env = plain_env(&kernel);
    let before = kernel.eject_count();
    let err = env.run("seq 3 > file out.f").unwrap_err();
    assert!(err.to_string().contains("no directory"), "{err}");
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
            Output::local(collector.clone()),
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
