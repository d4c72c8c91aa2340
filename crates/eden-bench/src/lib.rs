//! The experiment harness: regenerates every figure and analytic claim of
//! the paper's evaluation. See `EXPERIMENTS.md` at the workspace root for
//! the experiment index and the recorded results.
//!
//! Run the tables with
//! `cargo run -p eden-bench --bin experiments [--release] [e1..e10|all]`.
//! Wall-clock measurement lives in the workspace's `benchmark/` package.

pub(crate) mod exp_duality;
pub(crate) mod exp_durability;
pub(crate) mod exp_pipeline;
pub(crate) mod runner;
pub(crate) mod table;
pub(crate) mod workloads;

use table::Table;

/// Run one experiment by id (`"e1"`..`"e10"`).
pub fn run_experiment(id: &str) -> Option<Vec<Table>> {
    match id {
        "e1" => Some(exp_pipeline::e1()),
        "e2" => Some(exp_pipeline::e2()),
        "e3" => Some(exp_pipeline::e3()),
        "e4" => Some(exp_duality::e4()),
        "e5" => Some(exp_duality::e5()),
        "e6" => Some(exp_duality::e6()),
        "e7" => Some(exp_pipeline::e7()),
        "e8" => Some(exp_pipeline::e8()),
        "e9" => Some(exp_durability::e9()),
        "e10" => Some(exp_durability::e10()),
        _ => None,
    }
}

/// All experiment ids, in order.
pub const ALL_EXPERIMENTS: [&str; 10] =
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("e99").is_none());
    }

    #[test]
    fn quick_experiments_produce_tables() {
        // Every table, and every `assert!` inside an experiment, on each
        // `cargo test`.
        for id in ALL_EXPERIMENTS {
            let tables = run_experiment(id).expect("known experiment");
            assert!(!tables.is_empty());
            for t in tables {
                assert!(!t.rows.is_empty(), "{id} produced an empty table");
            }
        }
    }
}
