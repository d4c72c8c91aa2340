//! The `pipe-bulk` workload's command counts the same invocations every
//! time it runs over the same file.
//!
//! The benchmark's `invocations_per_record` for `pipe-bulk` is the mean over
//! its repetitions of the read-only and write-only arms' counts. Each
//! repetition draws a text of its own, and a read-only arm's count follows
//! the lines the `grep` keeps (its sink pulls them 64 a `Transfer`), so that
//! mean moves in the seventh digit with the number of repetitions that fit
//! in the run. Over one text the count is exact, run after run; this test
//! holds it there.

use eden_fs::hostfs::lines_to_bytes;
use eden_fs::{MemFs, UnixFsEject};
use eden_kernel::{Kernel, ObsConfig};
use eden_shell::ShellEnv;

const LINES: usize = 5_000;
const RUNS: usize = 20;

/// `LINES` lines of 3 to 9 words, some of them `lazy`.
fn prose() -> Vec<String> {
    const VOCAB: [&str; 8] = ["the", "cat", "sat", "on", "mat", "quick", "brown", "lazy"];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |below: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % below
    };
    (0..LINES)
        .map(|_| {
            let words: Vec<&str> = (0..3 + draw(7)).map(|_| VOCAB[draw(VOCAB.len())]).collect();
            words.join(" ")
        })
        .collect()
}

/// The invocations of one run of the command in each discipline, on a
/// kernel of its own as a benchmark repetition has.
fn counts(lines: &[String], disciplines: &[&str]) -> Vec<u64> {
    let kernel = Kernel::builder().observability(ObsConfig::off()).build();
    let fs = MemFs::with_files([("in.txt", lines_to_bytes(lines))]);
    let unixfs = kernel
        .spawn(Box::new(UnixFsEject::new(fs.clone())))
        .expect("UnixFs spawns");
    let shell = ShellEnv::new(&kernel).with_unixfs(unixfs);
    let counts = disciplines
        .iter()
        .map(|discipline| {
            let command = format!(
                "@batch=64 @discipline={discipline} unix in.txt | grep -v lazy | upcase | line-number > unix out.txt"
            );
            let ran = shell.run(&command).expect("the command runs");
            fs.remove("out.txt").expect("out.txt is written");
            ran.run.metrics.invocations
        })
        .collect();
    kernel.shutdown();
    counts
}

// The two arms the benchmark counts; a conventional run's count depends on
// how its pumps interleave, and the benchmark leaves it out.
#[test]
fn the_bulk_command_counts_the_same_invocations_every_run() {
    let lines = prose();
    for _ in 0..RUNS {
        assert_eq!(counts(&lines, &["read-only", "write-only"]), [194, 396]);
    }
    // Fewer lines kept, fewer batches for the read-only sink to pull; the
    // write-only count does not move.
    let fewer: Vec<String> = lines.iter().map(|l| l.replace("cat", "lazy")).collect();
    let [read_only, write_only] = counts(&fewer, &["read-only", "write-only"])[..] else {
        unreachable!("two disciplines, two counts")
    };
    assert!(read_only < 194, "{read_only}");
    assert_eq!(write_only, 396);
}
