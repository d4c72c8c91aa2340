//! Quickstart: the same filter chain wired in all three communication
//! disciplines, with the paper's cost comparison printed at the end.
//!
//! Run with: `cargo run --example quickstart`

use std::time::Duration;

use eden::core::Value;
use eden::filters::{Grep, LineNumber, StripComments};
use eden::kernel::Kernel;
use eden::transput::{Discipline, PipelineSpec};

fn fortran_deck() -> Vec<Value> {
    [
        "C     SOLVE THE HEAT EQUATION",
        "      PROGRAM HEAT",
        "C     (COMMENTS STRIPPED BY THE FILTER OF SECTION 3)",
        "      REAL T(100)",
        "      CALL INIT(T)",
        "C     MAIN LOOP",
        "      DO 10 I = 1, 100",
        "   10 CALL STEP(T)",
        "      CALL REPORT(T)",
        "      END",
    ]
    .iter()
    .map(|l| Value::str(*l))
    .collect()
}

fn main() {
    let kernel = Kernel::new();
    println!("== eden quickstart: one filter chain, three disciplines ==\n");

    for discipline in [
        Discipline::ReadOnly { read_ahead: 0 },
        Discipline::WriteOnly { push_ahead: 0 },
        Discipline::Conventional {
            buffer_capacity: 16,
        },
    ] {
        let run = PipelineSpec::new(discipline)
            .source_vec(fortran_deck())
            .stage(Box::new(StripComments::fortran()))
            .stage(Box::new(Grep::matching("CALL*")))
            .stage(Box::new(LineNumber::new()))
            .batch(1)
            .build(&kernel)
            .expect("pipeline builds")
            .run(Duration::from_secs(10))
            .expect("pipeline runs");

        println!("--- {} ---", discipline.label());
        for line in &run.output {
            println!("{}", line.as_str().unwrap_or("?"));
        }
        println!(
            "entities: {:<2}  invocations: {:<3}  ({:.2} per record)  internal msgs: {}\n",
            run.entities,
            run.metrics.invocations,
            run.invocations_per_record(),
            run.metrics.internal_messages,
        );
    }

    println!("The asymmetric disciplines (read-only, write-only) move each record");
    println!("with n+1 invocations through n filters; the conventional discipline");
    println!("needs 2n+2 plus n+1 passive buffer Ejects — Section 4 of the paper.");
    kernel.shutdown();
}
