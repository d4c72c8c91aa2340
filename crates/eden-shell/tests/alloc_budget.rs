//! An allocation budget for the byte path, so a line stays a window on its
//! file.
//!
//! §7's `NewStream` hands out the lines of a file and `UseStream` writes
//! the lines of a stream; between them §3's filters do to a line what they
//! must and no more. What that should cost the heap is what is *made*: one
//! buffer a line `upcase` changes, one a line `line-number` prefixes, and
//! the batches they travel in — not a copy to leave the file, a copy to
//! enter the next one, and a pattern rebuilt per record. This binary counts
//! heap allocations (a `#[global_allocator]` is per binary, hence a test
//! file of its own) over the `pipe-bulk` workload's command on 5 000
//! generated lines, each discipline, checks `out.txt` against plain `str`
//! code, and divides by the input lines. No timing in it.
//!
//! Measured when the budget was set: 2.3 / 2.4 / 2.8 allocations a line
//! read-only / write-only / conventional (11.5 and more when every
//! line was an owned `String` on its way in and out).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use eden_fs::hostfs::lines_to_bytes;
use eden_fs::{MemFs, UnixFsEject};
use eden_kernel::{Kernel, ObsConfig};
use eden_shell::ShellEnv;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic and touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LINES: usize = 5_000;
/// Allocations an input line may cost, any discipline.
const BUDGET: f64 = 3.5;

/// The benchmark's vocabulary.
const VOCAB: [&str; 24] = [
    "the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "bird", "flew", "high", "over", "tree",
    "river", "stone", "cloud", "wind", "light", "dark", "morning", "evening", "quick", "brown",
    "lazy",
];

/// `LINES` lines of 3 to 9 words; about a fifth contain `lazy`.
fn prose() -> Vec<String> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |below: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize % below
    };
    (0..LINES)
        .map(|_| {
            let words: Vec<&str> = (0..3 + draw(7)).map(|_| VOCAB[draw(VOCAB.len())]).collect();
            words.join(" ")
        })
        .collect()
}

/// What the command must leave in `out.txt`, by plain `str` code.
fn reference(lines: &[String]) -> Vec<u8> {
    let kept = lines.iter().filter(|l| !l.contains("lazy"));
    let numbered: Vec<String> = kept
        .zip(1..)
        .map(|(line, number): (_, u64)| format!("{number:>6}  {}", line.to_uppercase()))
        .collect();
    lines_to_bytes(&numbered)
}

/// Allocations of one run of the command on a kernel of its own.
fn census(discipline: &str, lines: &[String], want: &[u8]) -> u64 {
    let kernel = Kernel::builder().observability(ObsConfig::off()).build();
    let fs = MemFs::with_files([("in.txt", lines_to_bytes(lines))]);
    let unixfs = kernel.spawn(Box::new(UnixFsEject::new(fs.clone()))).expect("UnixFs spawns");
    let shell = ShellEnv::new(&kernel).with_unixfs(unixfs);
    let command = format!(
        "@batch=64 @discipline={discipline} unix in.txt | grep -v lazy | upcase | line-number > unix out.txt"
    );
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    shell.run(&command).expect("the command runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(fs.read("out.txt").expect("out.txt is written") == want, "{discipline}: out.txt");
    kernel.shutdown();
    allocations
}

// One test, so nothing else in this binary allocates beside a census.
#[test]
fn a_line_allocates_within_its_budget() {
    let lines = prose();
    let want = reference(&lines);
    for discipline in ["read-only", "write-only", "conventional"] {
        let each = census(discipline, &lines, &want) as f64 / LINES as f64;
        println!("{discipline}: {each:.2} allocations a line");
        assert!(each <= BUDGET, "{discipline}: {each:.2} allocations a line, budget {BUDGET}");
    }
    // Every read-only hop is a call on its caller's stack: nothing races on
    // the data path, so the figure repeats. (The count itself moves by two
    // or three in 11 600: the command's set-up and its teardown poll.)
    let read_only = || {
        (10.0 * census("read-only", &lines, &want) as f64 / LINES as f64).round()
    };
    assert_eq!(read_only(), read_only(), "tenths of an allocation a line");
}
