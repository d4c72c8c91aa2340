//! Deterministic experiment harness: prints the table(s) for each
//! experiment in `EXPERIMENTS.md`.
//!
//! Usage: `cargo run -p eden-bench --release --bin experiments [ids...]`
//! where each id is `e1`..`e10`; no argument (or `all`) runs everything.
//! An unknown id exits 2.

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        eden_bench::ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    println!("# Asymmetric Stream Communication — experiment harness\n");
    let overall = Instant::now();
    let mut failed = false;
    for id in ids {
        let t0 = Instant::now();
        match eden_bench::run_experiment(id) {
            Some(tables) => {
                for table in &tables {
                    println!("{table}");
                }
                println!("({id} took {:.2}s)\n", t0.elapsed().as_secs_f64());
            }
            None => {
                eprintln!("unknown experiment id: {id} (want e1..e10 or all)");
                failed = true;
            }
        }
    }
    println!("total: {:.2}s", overall.elapsed().as_secs_f64());
    if failed {
        std::process::exit(2);
    }
}
